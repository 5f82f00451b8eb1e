package vdce

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/testbed"
)

// TestFairShareSoak is the deterministic fairness soak: two heavy
// owners (weight 1 each) and one light owner (weight 2) submit
// concurrently into a choked single-worker pipeline, then the backlog
// drains serialized. The dispatch share of each owner over the first
// measured window must stay within ±15% of its weight fraction
// (1/4, 1/4, 2/4), and — the starvation regression for the aging
// contract under fair-share — no job may wait more than a bounded
// multiple of the mean wait.
func TestFairShareSoak(t *testing.T) {
	jobsPerOwner := 12
	measure := 20
	if testing.Short() {
		jobsPerOwner = 6
		measure = 12
	}
	type ownerSpec struct {
		name   string
		weight int
	}
	owners := []ownerSpec{{"heavy-a", 1}, {"heavy-b", 1}, {"light-c", 2}}
	totalWeight := 0
	for _, o := range owners {
		totalWeight += o.weight
	}

	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 101, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth:        len(owners)*jobsPerOwner + 8,
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 1,
		},
	})
	env.Console.Suspend()
	ctx := context.Background()

	// Build the graphs up front (t.Fatal must not fire in goroutines).
	graphs := make([][]*afg.Graph, len(owners))
	for oi := range owners {
		graphs[oi] = make([]*afg.Graph, jobsPerOwner)
		for i := range graphs[oi] {
			graphs[oi][i] = soakGraph(t, i%2)
		}
	}

	// All owners submit concurrently (this is the -race surface: three
	// goroutines hammering reserveQueued/push against the worker's pops).
	jobs := make([][]*Job, len(owners))
	errCh := make(chan error, len(owners)*jobsPerOwner)
	var wg sync.WaitGroup
	for oi, o := range owners {
		jobs[oi] = make([]*Job, jobsPerOwner)
		wg.Add(1)
		go func(oi int, o ownerSpec) {
			defer wg.Done()
			for i := 0; i < jobsPerOwner; i++ {
				job, err := env.Submit(ctx, graphs[oi][i],
					WithOwner(o.name), WithShareWeight(o.weight))
				if err != nil {
					errCh <- err
					return
				}
				jobs[oi][i] = job
			}
		}(oi, o)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("submit: %v", err)
	}

	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 8*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Collect every job's dispatch record.
	type record struct {
		owner              string
		submitted, started time.Time
	}
	var records []record
	for oi, o := range owners {
		for i, job := range jobs[oi] {
			if err := job.Err(); err != nil {
				t.Fatalf("%s job %d failed: %v", o.name, i, err)
			}
			s := job.Status()
			if s.StartedAt.IsZero() {
				t.Fatalf("%s job %d has no start time", o.name, i)
			}
			records = append(records, record{o.name, s.SubmittedAt, s.StartedAt})
		}
	}
	sort.Slice(records, func(i, j int) bool { return records[i].started.Before(records[j].started) })

	// Fairness: over the first `measure` dispatches — while every owner
	// is still backlogged — each owner's share must be within ±15% of
	// its weight fraction. (The first couple of pops race the concurrent
	// submissions; the tolerance absorbs them.)
	shares := map[string]int{}
	for _, r := range records[:measure] {
		shares[r.owner]++
	}
	for _, o := range owners {
		got := float64(shares[o.name]) / float64(measure)
		want := float64(o.weight) / float64(totalWeight)
		if diff := got - want; diff < -0.15 || diff > 0.15 {
			t.Errorf("owner %s dispatch share = %.2f (%d of %d), want %.2f ±0.15",
				o.name, got, shares[o.name], measure, want)
		}
	}

	// Starvation bound: no job waits more than a bounded multiple of the
	// mean wait (the 1s absolute slack keeps sub-millisecond means from
	// making the bound degenerate).
	var total time.Duration
	var maxWait time.Duration
	for _, r := range records {
		w := r.started.Sub(r.submitted)
		total += w
		if w > maxWait {
			maxWait = w
		}
	}
	mean := total / time.Duration(len(records))
	if bound := 4*mean + time.Second; maxWait > bound {
		t.Errorf("max wait %v exceeds starvation bound %v (mean %v)", maxWait, bound, mean)
	}
}

// TestQueuedQuotaRejectsTyped covers the admission-side quota: an
// owner over MaxQueuedPerOwner is rejected with a typed QuotaError
// (matching ErrQuotaExceeded), other owners are unaffected, and — the
// fair-share acceptance bullet — a capped owner's excess submissions
// never block another owner's dispatch.
func TestQueuedQuotaRejectsTyped(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 102, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth:        16,
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 1,
			Quota: QuotaConfig{
				MaxQueuedPerOwner:   2,
				MaxInFlightPerOwner: 1,
			},
		},
	})
	env.Console.Suspend()
	ctx := context.Background()

	a1, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker claims a1 (its queued-quota slot frees and
	// alice hits her in-flight cap, parking everything behind it).
	waitForState(t, a1, func(s JobState) bool { return s != JobQueued })

	a2, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	a3, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	// Fourth submission: over the queued cap. Typed rejection, no job.
	_, err = env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-cap submit = %v, want ErrQuotaExceeded", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-cap submit error %T is not a *QuotaError", err)
	}
	if qe.Owner != "alice" || qe.Resource != "queued-jobs" || qe.Limit != 2 || qe.Used != 2 {
		t.Fatalf("QuotaError = %+v, want alice/queued-jobs 2 of 2", qe)
	}

	// Another owner is untouched by alice's caps — and dispatches past
	// her parked backlog: bob was submitted after a2/a3 but must reach
	// the scheduler while they are still queued (alice is at her
	// in-flight cap).
	b1, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("bob"))
	if err != nil {
		t.Fatalf("other owner rejected by alice's quota: %v", err)
	}
	waitForState(t, b1, func(s JobState) bool { return s != JobQueued })
	if got := a2.State(); got != JobQueued {
		t.Fatalf("a2 state = %v while alice is at her in-flight cap, want queued", got)
	}
	if got := a3.State(); got != JobQueued {
		t.Fatalf("a3 state = %v while alice is at her in-flight cap, want queued", got)
	}

	// Release the backlog: everything completes, and the parked jobs
	// dispatch only after their predecessor finished (cap 1 serializes
	// the owner).
	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 4*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for name, job := range map[string]*Job{"a1": a1, "a2": a2, "a3": a3, "b1": b1} {
		if err := job.Err(); err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
	}
	if a2Started, a1Finished := a2.Status().StartedAt, a1.Status().FinishedAt; a2Started.Before(a1Finished) {
		t.Fatalf("a2 started %v before a1 finished %v despite in-flight cap 1", a2Started, a1Finished)
	}
	// The freed quota admits new work again.
	if _, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice")); err != nil {
		t.Fatalf("post-drain submit still rejected: %v", err)
	}
	drainCtx2, cancel2 := context.WithTimeout(ctx, 4*time.Minute)
	defer cancel2()
	if err := env.Drain(drainCtx2); err != nil {
		t.Fatal(err)
	}
}

// TestHostsQuotaParksUntilHostsFree covers the held-hosts cap: with
// MaxHostsPerOwner=1 every placement charges at least one host, so an
// owner's second scheduled job parks after scheduling (state stays
// scheduling, no hosts held) until the first job releases its hosts —
// the first job itself is admitted alone even if its placement exceeds
// the cap — while another owner's job dispatches meanwhile; owner
// usage counters track held hosts live.
func TestHostsQuotaParksUntilHostsFree(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 103, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth: 16,
			// One worker makes the parked gate deterministic: the pop
			// following h2's park always observes it.
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 3,
			Quota:             QuotaConfig{MaxHostsPerOwner: 1},
		},
	})
	env.Console.Suspend()
	ctx := context.Background()

	h1, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, h1, func(s JobState) bool { return s == JobRunning })
	if got := env.Board.OwnerUsages()["alice"].HostsHeld; got < 1 {
		t.Fatalf("alice holds %d hosts while h1 runs, want >= 1", got)
	}

	h2, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	// h2 schedules, then parks on the held-hosts cap: it must sit in
	// scheduling with no hosts held, not running.
	waitForState(t, h2, func(s JobState) bool { return s == JobScheduling })
	b1, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	// bob is under his own (empty) ledger: his job dispatches past
	// alice's parked one.
	waitForState(t, b1, func(s JobState) bool { return s == JobRunning })
	if got := h2.State(); got != JobScheduling {
		t.Fatalf("h2 state = %v while alice's host is held, want scheduling (parked)", got)
	}
	if got := h2.Status().HostsHeld; got != 0 {
		t.Fatalf("parked job reports %d held hosts, want 0", got)
	}
	// The parked gate: with h2 parked, alice's further jobs stay in the
	// queue instead of piling up as parked goroutines.
	h3, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	// Submit returns with h3 in the admission queue. The cause, not a
	// timing, keeps it there: alice's share is ineligible for pops while
	// h2 is parked, so the one worker cannot take h3.
	waitForState(t, h3, func(s JobState) bool { return s == JobQueued })
	q := env.pipe.admit
	q.mu.Lock()
	share := q.owners["alice"]
	parked, eligible := share.parked, q.eligible(share)
	q.mu.Unlock()
	if parked != 1 || eligible {
		t.Fatalf("alice's share: parked %d, eligible %v while h2 is parked; want 1, false", parked, eligible)
	}
	if got := h3.State(); got != JobQueued {
		t.Fatalf("h3 state = %v while h2 is parked, want queued (pop skips parked owners)", got)
	}

	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 4*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for name, job := range map[string]*Job{"h1": h1, "h2": h2, "h3": h3, "b1": b1} {
		if err := job.Err(); err != nil {
			t.Fatalf("%s failed: %v", name, err)
		}
	}
	if h2Started, h1Finished := h2.Status().StartedAt, h1.Status().FinishedAt; h2Started.Before(h1Finished) {
		t.Fatalf("h2 started %v before h1 finished %v despite hosts cap", h2Started, h1Finished)
	}
	// All charges returned.
	if got := env.Board.OwnerUsages()["alice"].HostsHeld; got != 0 {
		t.Fatalf("alice still holds %d hosts after drain", got)
	}
}

// TestDeadlineExpiresWhileParkedOnHostsQuota pins WithDeadline's
// whole-lifetime contract against the hosts-quota park: a job whose
// deadline passes while it is parked (post-schedule, pre-dispatch)
// terminalizes with ErrJobDeadlineExceeded instead of waiting for the
// owner's hosts, and never runs.
func TestDeadlineExpiresWhileParkedOnHostsQuota(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 105, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth:        16,
			SchedulerWorkers:  2,
			MaxConcurrentRuns: 3,
			Quota:             QuotaConfig{MaxHostsPerOwner: 1},
		},
	})
	env.Console.Suspend()
	ctx := context.Background()

	h1, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, h1, func(s JobState) bool { return s == JobRunning })
	doomed, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("alice"),
		WithDeadline(time.Now().Add(400*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, doomed, func(s JobState) bool { return s == JobScheduling })
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := doomed.Wait(waitCtx); !errors.Is(err, ErrJobDeadlineExceeded) {
		t.Fatalf("parked job's Wait = %v, want ErrJobDeadlineExceeded", err)
	}
	if !doomed.Status().StartedAt.IsZero() {
		t.Fatal("deadline-expired parked job reports a start time")
	}
	// h1 is untouched; the owner's gate cleared so later jobs dispatch.
	env.Console.Resume()
	drainCtx, cancelDrain := context.WithTimeout(ctx, 4*time.Minute)
	defer cancelDrain()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if err := h1.Err(); err != nil {
		t.Fatalf("h1 failed: %v", err)
	}
}

// TestShareWeightResolution pins the weight default chain: explicit
// WithShareWeight wins, owned jobs default to the account priority,
// anonymous jobs weigh 1, and everything clamps to >= 1.
func TestShareWeightResolution(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 104}})
	ctx := context.Background()
	g := soakGraph(t, 1)

	cases := []struct {
		name string
		opts []SubmitOption
		want int
	}{
		{"account-default", []SubmitOption{WithOwner("user_k")}, 5}, // user_k priority 5
		{"explicit", []SubmitOption{WithOwner("user_k"), WithShareWeight(3)}, 3},
		{"anonymous", nil, 1},
		{"clamped-low", []SubmitOption{WithShareWeight(-7)}, 1},
		// The weight is client-settable over HTTP: an absurd value
		// saturates instead of buying an unbounded dispatch share.
		{"clamped-high", []SubmitOption{WithShareWeight(1 << 30)}, MaxShareWeight},
	}
	for _, tc := range cases {
		job, err := env.Submit(ctx, g, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := job.ShareWeight(); got != tc.want {
			t.Errorf("%s: ShareWeight = %d, want %d", tc.name, got, tc.want)
		}
		if got := job.Status().ShareWeight; got != tc.want {
			t.Errorf("%s: Status().ShareWeight = %d, want %d", tc.name, got, tc.want)
		}
	}
	drainCtx, cancel := context.WithTimeout(ctx, 4*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	// Owners() reflects the last-submitted weights and matched usage.
	for _, o := range env.Owners() {
		if o.Owner == "user_k" && o.Weight != 3 {
			t.Errorf("Owners() weight for user_k = %d, want the latest submission's 3", o.Weight)
		}
	}
}

// waitForState polls a job until cond holds for its state, failing the
// test after 30 seconds.
func waitForState(t *testing.T, job *Job, cond func(JobState) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(job.State()) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %v", job.ID, job.State())
		}
		time.Sleep(time.Millisecond)
	}
}
