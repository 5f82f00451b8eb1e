package vdce

// Overload-resilience acceptance (ISSUE 8): under a sustained 4x
// overload with a flapping host, submitters are shed fast instead of
// blocking, shed submissions leave no control-plane residue, the
// engine's retries stay inside the configured budget, the flapping
// host's circuit breaker opens and half-open probes re-admit it, and
// the readiness verdict tracks recovery replay and the shed rate.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vdce/internal/detect"
	"vdce/internal/exec"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// submitOutcome records one submitter's result in the overload waves.
type submitOutcome struct {
	job     *Job
	err     error
	latency time.Duration
}

// submitWave fires n concurrent submissions of ms-millisecond spin
// chains and returns every outcome.
func submitWave(t *testing.T, env *Environment, n, ms int, tag string) []submitOutcome {
	t.Helper()
	out := make([]submitOutcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := spinChain(t, fmt.Sprintf("%s-%d", tag, i), ms)
			start := time.Now()
			job, err := env.Submit(context.Background(), g)
			out[i] = submitOutcome{job: job, err: err, latency: time.Since(start)}
		}(i)
	}
	wg.Wait()
	return out
}

// TestOverloadShedsFastWithoutResidue pins the shed contract on a
// deliberately saturated pipeline: one run slot held by a long job, the
// worker parked behind it, and the 2-deep queue full. Every further
// submission must fail fast with a typed queue-full ShedError instead
// of blocking, and must leave no job on the board or in the store.
func TestOverloadShedsFastWithoutResidue(t *testing.T) {
	const maxWait = 50 * time.Millisecond
	env, err := New(Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 11, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth: 2, SchedulerWorkers: 1, MaxConcurrentRuns: 1,
			Shed: ShedConfig{MaxSubmitWait: maxWait, RetryAfter: 2 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()

	env.Console.Suspend()
	hold, err := env.Submit(ctx, spinJobGraph("hold", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hold, JobRunning)

	outcomes := submitWave(t, env, 16, 1, "wave")
	accepted, shed := 0, 0
	for i, oc := range outcomes {
		if oc.latency > 2*time.Second {
			t.Errorf("submission %d took %v; shedding must bound the wait near %v", i, oc.latency, maxWait)
		}
		if oc.err == nil {
			accepted++
			continue
		}
		shed++
		if !errors.Is(oc.err, ErrShed) {
			t.Fatalf("submission %d failed with %v, want ErrShed", i, oc.err)
		}
		var se *ShedError
		if !errors.As(oc.err, &se) {
			t.Fatalf("submission %d error %T is not *ShedError", i, oc.err)
		}
		if se.Reason != ShedQueueFull {
			t.Errorf("submission %d shed reason = %q, want %q", i, se.Reason, ShedQueueFull)
		}
		if se.RetryAfter != 2*time.Second {
			t.Errorf("submission %d RetryAfter = %v, want the configured 2s", i, se.RetryAfter)
		}
	}
	if shed == 0 {
		t.Fatal("a 16-submission wave against capacity ~4 shed nothing")
	}
	// No residue: the board holds exactly the hold job plus the accepted
	// wave — shed submissions never registered anywhere.
	if got := len(env.Jobs()); got != accepted+1 {
		t.Fatalf("board holds %d jobs, want %d accepted + 1 hold (shed residue?)", got, accepted+1)
	}
	if acc, sh := env.obsM.accepted.Value(), env.obsM.rejectQueueFull.Value(); acc != float64(accepted+1) || sh != float64(shed) {
		t.Fatalf("admission counters = %v accepted / %v shed, want %d / %d", acc, sh, accepted+1, shed)
	}

	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, oc := range outcomes {
		if oc.err == nil && oc.job.State() != JobDone {
			t.Errorf("accepted job %d ended %s, want done", i, oc.job.State())
		}
	}
}

// TestDeadlineShedNeedsNoSubmitWait pins that CheckDeadline is governed
// by its own field: with no MaxSubmitWait configured, a job whose
// deadline lies inside its critical-path estimate is shed as
// deadline-infeasible — counted, and leaving no board row — while the
// same graph with a feasible deadline is admitted and runs.
func TestDeadlineShedNeedsNoSubmitWait(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 21, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{Shed: ShedConfig{CheckDeadline: true}},
	})
	ctx := context.Background()
	g, err := tasklib.BuildLinearEquationSolver(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, ok := env.pipe.minCompletionEstimate(g)
	if !ok || est < 100*time.Millisecond {
		t.Fatalf("critical-path estimate = %v (ok=%v); the test needs one well above its tight deadline", est, ok)
	}

	_, err = env.Submit(ctx, g, WithDeadline(time.Now().Add(est/4)))
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ShedDeadlineInfeasible {
		t.Fatalf("submit with a deadline of a quarter of the estimate = %v, want a %s shed", err, ShedDeadlineInfeasible)
	}
	if got := env.obsM.rejectDeadline.Value(); got != 1 {
		t.Errorf("deadline-infeasible reject counter = %v, want 1", got)
	}
	if rows, n := env.Jobs(), env.CountJobs("", ""); len(rows) != 0 || n != 0 {
		t.Fatalf("shed submission left residue: %d rows, count %d", len(rows), n)
	}

	job, err := env.Submit(ctx, g, WithDeadline(time.Now().Add(time.Minute)))
	if err != nil {
		t.Fatalf("submit with a feasible deadline: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := job.Wait(waitCtx); err != nil {
		t.Fatalf("feasible job: %v", err)
	}
}

// TestBrownoutSoakOverloadAndFlappingHost is the brownout soak the CI
// runs under -race: a 4x overload wave while one placed host flaps
// up/down. Submitters shed fast instead of blocking, the flapping
// host is quarantined and half-open probes re-admit it once it holds
// still, retries stay inside the engine-wide budget, and the
// environment is ready again once the storm passes.
func TestBrownoutSoakOverloadAndFlappingHost(t *testing.T) {
	waveN, flapCycles := 40, 4
	if testing.Short() {
		waveN, flapCycles = 20, 3
	}
	const (
		maxWait      = 100 * time.Millisecond
		budgetPerSec = 50.0
		budgetBurst  = 8
	)
	env, err := New(Config{
		Testbed: testbed.Config{
			Sites: 2, HostsPerGroup: 4, Seed: 77,
			SpeedMin: 1, SpeedMax: 2, BaseLoadMax: 0.1, LoadSigma: 0.01,
		},
		StartDaemons:  true,
		MonitorPeriod: 10 * time.Millisecond,
		StartDetector: true,
		Detect: detect.Config{
			SuspicionTimeout: 100 * time.Millisecond,
			ConfirmQuorum:    2,
			TickPeriod:       25 * time.Millisecond,
			// A flapping host mixes successes into its window, so the
			// soak trips on a modest failure share and re-admits after a
			// single good probe.
			MinSamples: 2, FailureThreshold: 0.25,
			OpenTimeout: 300 * time.Millisecond, ProbeSuccesses: 1,
		},
		Retry: exec.RetryConfig{
			BaseDelay: 2 * time.Millisecond, MaxDelay: 30 * time.Millisecond,
			BudgetPerSecond: budgetPerSec, BudgetBurst: budgetBurst, Seed: 42,
		},
		Pipeline: PipelineConfig{
			QueueDepth: 8, SchedulerWorkers: 2, MaxConcurrentRuns: 2,
			Shed: ShedConfig{MaxSubmitWait: maxWait},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var trMu sync.Mutex
	var transitions []detect.Transition
	env.Detector.Subscribe(func(tr detect.Transition) {
		if tr.To.Quarantine() {
			trMu.Lock()
			transitions = append(transitions, tr)
			trMu.Unlock()
		}
	})
	env.Engine.MaxAttempts = 8
	env.Engine.LoadCheckPeriod = 2 * time.Millisecond
	start := time.Now()

	// The 4x overload wave: capacity is ~10 admitted-but-unfinished jobs
	// (queue 8 + 2 run slots), the wave is 4x that.
	outcomes := submitWave(t, env, waveN, 25, "soak")
	var jobs []*Job
	shed := 0
	for i, oc := range outcomes {
		if oc.latency > 3*time.Second {
			t.Errorf("submission %d blocked %v; shedding must bound the wait near %v", i, oc.latency, maxWait)
		}
		switch {
		case oc.err == nil:
			jobs = append(jobs, oc.job)
		case errors.Is(oc.err, ErrShed):
			shed++
		default:
			t.Errorf("submission %d failed with %v, want success or ErrShed", i, oc.err)
		}
	}
	if shed == 0 {
		t.Error("4x overload wave shed nothing")
	}
	if len(jobs) == 0 {
		t.Fatal("4x overload wave accepted nothing")
	}

	// Pick a flap victim that provably intersects live placements.
	var victim string
	pickDeadline := time.Now().Add(30 * time.Second)
	for victim == "" && time.Now().Before(pickDeadline) {
		for _, j := range jobs {
			if table := j.Table(); table != nil {
				victim = table.Entries[0].Hosts[0]
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if victim == "" {
		t.Fatal("no accepted job scheduled within 30s; cannot pick a flap victim")
	}
	h, err := env.TB.Host(victim)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flapping %s for %d cycles", victim, flapCycles)

	// Flap: down long enough for the detector to suspect (100ms timeout)
	// and the watchdog to kill in-flight work, up briefly in between —
	// the pattern the detector alone keeps forgiving. A trickle of
	// submissions keeps placements flowing while the host oscillates.
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for i := 0; i < flapCycles; i++ {
			h.Fail()
			time.Sleep(200 * time.Millisecond)
			h.Recover()
			time.Sleep(75 * time.Millisecond)
		}
	}()
	trickle := 0
	for done := false; !done; {
		select {
		case <-flapDone:
			done = true
		default:
			g := spinChain(t, fmt.Sprintf("trickle-%d", trickle), 25)
			if job, err := env.Submit(context.Background(), g); err == nil {
				jobs = append(jobs, job)
			} else if !errors.Is(err, ErrShed) {
				t.Errorf("trickle submit %d: %v", trickle, err)
			}
			trickle++
			time.Sleep(50 * time.Millisecond)
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		for _, j := range jobs {
			if s := j.State(); s != JobDone && s != JobFailed && s != JobCanceled {
				t.Errorf("job %s stuck in %s", j.ID, s)
			}
		}
		t.Fatalf("drain: %v", err)
	}
	// Every accepted job had 7 healthy alternates: all must complete,
	// with the flap absorbed by rescheduling and quarantine.
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Errorf("job %s (%s): %v [reschedules=%d failed_hosts=%v]",
				j.ID, j.State(), err, j.Reschedules(), j.FailedHosts())
		}
	}

	// Retries stayed inside the engine-wide budget: the token bucket
	// admits at most rate*elapsed + burst reservations, parked ones
	// having waited for their future token.
	retries, parked := env.Engine.RetryStats()
	elapsed := time.Since(start)
	if ceiling := budgetPerSec*elapsed.Seconds() + float64(budgetBurst) + float64(parked); float64(retries) > ceiling {
		t.Errorf("retries = %d over %v, above the budget ceiling %.0f", retries, elapsed, ceiling)
	}
	t.Logf("accepted=%d shed=%d trickle=%d retries=%d parked=%d over %v",
		len(jobs), shed, trickle, retries, parked, elapsed.Round(time.Millisecond))

	// The flapping host was quarantined...
	trMu.Lock()
	opened := false
	for _, tr := range transitions {
		if tr.Host == victim && tr.To == detect.Open {
			opened = true
		}
	}
	trMu.Unlock()
	if !opened {
		t.Errorf("quarantine never opened for the flapping host %s (transitions: %v)", victim, transitions)
	}
	// ...and with the host holding still, the open->half-open timeout
	// re-admits it for probe traffic.
	readmitted := func() bool {
		hs, _ := env.Detector.Health(victim)
		return hs.Phase != detect.Open
	}
	admitDeadline := time.Now().Add(5 * time.Second)
	for !readmitted() && time.Now().Before(admitDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !readmitted() {
		hs, _ := env.Detector.Health(victim)
		t.Errorf("host %s still quarantined (%+v) after the flap ended", victim, hs)
	}

	// The storm has passed: the environment reports ready.
	if ready, reason := env.Ready(); !ready {
		t.Errorf("environment not ready after drain: %s", reason)
	}
}

// TestReadyzGates pins the readiness verdict deterministically on a
// synthetic clock: not-ready while recovery replay holds re-admitted
// jobs, not-ready while the recent shed rate is above threshold, ready
// again once the meter window slides past the storm.
func TestReadyzGates(t *testing.T) {
	now := time.Unix(0, 0)
	env, err := New(Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 3},
		Pipeline: PipelineConfig{Shed: ShedConfig{MaxSubmitWait: 50 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	if ready, reason := env.readyAt(now); !ready {
		t.Fatalf("fresh environment not ready: %s", reason)
	}
	// Recovery replay pending: not ready until the last adopted job is
	// claimed (noteReplayDone decrements the gauge).
	env.pipe.recoveryPending.Store(2)
	if ready, reason := env.readyAt(now); ready || reason == "" {
		t.Fatalf("readyAt = %v (%q) with replay pending, want not-ready with a reason", ready, reason)
	}
	env.pipe.recoveryPending.Store(0)
	if ready, _ := env.readyAt(now); !ready {
		t.Fatal("still not ready after replay drained")
	}

	// A shed storm: 4 sheds, 1 accept inside the window trips the
	// default 0.5 threshold with the >= 4 sample floor.
	for i := 0; i < 4; i++ {
		env.pipe.meter.record(now, true)
	}
	env.pipe.meter.record(now, false)
	if ready, reason := env.readyAt(now); ready {
		t.Fatalf("ready while shedding 80%% of recent submissions (%s)", reason)
	}
	// The synthetic clock slides the 5 s meter window past the storm.
	now = now.Add(6 * time.Second)
	if ready, reason := env.readyAt(now); !ready {
		t.Fatalf("not ready after the shed window slid past: %s", reason)
	}
}

// TestReadyzDuringRecoveryReplay drives the replay gate end to end on a
// durable store: a restart with a serialized pipeline holds re-admitted
// jobs in the queue behind a long-running recovered job, so the
// environment reports not-ready while the replay backlog drains and
// ready once it has.
func TestReadyzDuringRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	env.Console.Suspend()
	long, err := env.Submit(ctx, gatedJobGraph("long"), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, JobRunning)
	for i := 0; i < 2; i++ {
		if _, err := env.Submit(ctx, spinJobGraph(fmt.Sprintf("backlog-%d", i), 1), WithOwner("bob")); err != nil {
			t.Fatal(err)
		}
	}
	env.Crash()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	env2.Console.Suspend()
	// The single worker re-dispatches the long job onto the one run slot,
	// where it waits at the suspended console, and parks behind it, so at
	// least one re-admitted job sits in the replay backlog.
	if ready, reason := env2.Ready(); ready {
		t.Fatal("ready while the recovery replay backlog is still queued")
	} else if reason == "" {
		t.Fatal("not-ready verdict carries no reason")
	}
	env2.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if ready, reason := env2.Ready(); !ready {
		t.Fatalf("not ready after the replay drained: %s", reason)
	}
}

// TestEditorShed503RetryAfter pins the HTTP overload vocabulary: a shed
// submission surfaces as 503 with a Retry-After header and a shed_reason
// field — distinguishable from the bare 503 of a schedule-only server —
// and GET /v1/hosts reports every host with its breaker state.
func TestEditorShed503RetryAfter(t *testing.T) {
	env, err := New(Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 11, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth: 2, SchedulerWorkers: 1, MaxConcurrentRuns: 1,
			Shed: ShedConfig{MaxSubmitWait: 50 * time.Millisecond, RetryAfter: 2 * time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ts := httptest.NewServer(env.EditorServer(true, 0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	ctx := context.Background()

	// Saturate: the run slot held, the worker parked behind it, the
	// queue full.
	env.Console.Suspend()
	hold, err := env.Submit(ctx, spinJobGraph("hold", 1), WithOwner("user_k"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hold, JobRunning)
	for i := 0; i < 3; i++ {
		if _, err := env.Submit(ctx, spinJobGraph(fmt.Sprintf("fill-%d", i), 1), WithOwner("user_k")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}

	appID := c.importApp(t, 0)
	req, err := http.NewRequest("POST", ts.URL+"/v1/apps/"+appID+"/submit", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit = %d %v, want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (the configured 2s hint)", got)
	}
	if reason, _ := body["shed_reason"].(string); reason != ShedQueueFull {
		t.Errorf("shed_reason = %v, want %q", body["shed_reason"], ShedQueueFull)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Error("shed 503 carries no error message")
	}

	// The hosts surface rides the same mux: every testbed host reported,
	// breakers closed on a healthy site.
	hosts := c.do("GET", "/v1/hosts", nil, http.StatusOK)
	list, _ := hosts["hosts"].([]any)
	if len(list) != len(env.TB.AllHosts()) {
		t.Fatalf("GET /v1/hosts reported %d hosts, want %d", len(list), len(env.TB.AllHosts()))
	}
	for _, raw := range list {
		h, _ := raw.(map[string]any)
		if h["breaker"] != "closed" {
			t.Errorf("host %v breaker = %v, want closed", h["host"], h["breaker"])
		}
		if up, _ := h["up"].(bool); !up {
			t.Errorf("host %v reported down on a healthy testbed", h["host"])
		}
	}

	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
