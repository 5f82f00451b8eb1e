package vdce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

// spinJobGraph builds a one-task graph over the catalog's Spin task,
// busy-working for roughly ms milliseconds of base-processor time — the
// knob the restart tests use to hold a job in the running state.
func spinJobGraph(name string, ms int) *afg.Graph {
	g := afg.NewGraph(name)
	id := g.AddTask("Spin", "util", 0, 1)
	g.Tasks[id].Props.Args = map[string]string{"ms": fmt.Sprint(ms)}
	return g
}

// gatedJobGraph is a job a restarted environment re-runs at once that a
// test can still catch running there: a 50 ms Spin feeds a Pass_Through,
// which waits at the console gate when the console was suspended while
// the spin ran.
func gatedJobGraph(name string) *afg.Graph {
	g := spinJobGraph(name, 50)
	pass := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.Connect(0, 0, pass, 0, 8); err != nil {
		panic(err)
	}
	return g
}

// durableCfg is the restart tests' shared configuration: a small
// two-site testbed and a deliberately serialized pipeline (one worker,
// one run slot) so the pre-crash mix of queued/in-flight jobs is
// deterministic.
func durableCfg(dir string) Config {
	return Config{
		Testbed:  testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 11, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
		StoreDir: dir,
	}
}

// waitState polls until the job reaches the wanted state or the timeout
// expires.
func waitState(t *testing.T, job *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if job.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (state %v, err %v)", job.ID, want, job.State(), job.Err())
}

// TestCrashRestartRecovery is the durability subsystem's end-to-end
// contract: a control plane holding a mix of done, running, and queued
// jobs dies without a graceful flush (SIGKILL-equivalent), and a second
// incarnation on the same store re-admits 100% of the queued jobs with
// owner, priority, share weight, deadline, and labels intact — and in
// the same within-owner dispatch order — re-dispatches the in-flight
// job to a terminal state, and retains the terminal one.
func TestCrashRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One job driven to done before the crash.
	doneJob, err := env.Submit(ctx, spinJobGraph("pre-done", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := doneJob.Wait(ctx); err != nil {
		t.Fatalf("pre-crash job: %v", err)
	}

	// One job held in the running state, at the suspended console, across
	// the crash window; the restarted environment re-runs it at once.
	env.Console.Suspend()
	runningJob, err := env.Submit(ctx, spinJobGraph("pre-running", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, runningJob, JobRunning)

	// A backlog for one owner with distinct admission parameters. The
	// single worker is parked behind the running job's run slot, so at
	// most one of these leaves the queued state before the crash.
	deadline := time.Now().Add(time.Hour).Truncate(time.Millisecond)
	labels := map[string]string{"team": "ops"}
	priorities := []int{5, 1, 3, 9}
	queued := make([]*Job, len(priorities))
	for i, prio := range priorities {
		opts := []SubmitOption{
			WithOwner("alice"), WithPriority(prio), WithShareWeight(4),
		}
		if i == 0 {
			opts = append(opts, WithDeadline(deadline), WithLabels(labels))
		}
		queued[i], err = env.Submit(ctx, spinJobGraph(fmt.Sprintf("backlog-%d", i), 1), opts...)
		if err != nil {
			t.Fatal(err)
		}
	}

	doneID, runningID := doneJob.ID, runningJob.ID
	env.Crash()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()

	rep := env2.Recovery()
	total := rep.QueuedRecovered + rep.InFlightRedispatched + rep.TerminalRetained
	if total != 2+len(queued) {
		t.Fatalf("recovery covered %d jobs, want %d: %+v", total, 2+len(queued), rep)
	}
	if rep.TerminalRetained != 1 {
		t.Fatalf("TerminalRetained = %d, want 1: %+v", rep.TerminalRetained, rep)
	}
	if rep.InFlightRedispatched < 1 {
		t.Fatalf("InFlightRedispatched = %d, want >= 1: %+v", rep.InFlightRedispatched, rep)
	}
	if rep.QueuedRecovered+rep.InFlightRedispatched != 1+len(queued) {
		t.Fatalf("non-terminal recovery = %d, want %d: %+v",
			rep.QueuedRecovered+rep.InFlightRedispatched, 1+len(queued), rep)
	}

	// The done job is retained with its terminal status.
	if s, ok := env2.Job(doneID); !ok || s.State != services.JobStateDone {
		t.Fatalf("retained done job = %+v (found %v)", s, ok)
	}
	// The in-flight job is re-adopted, marked recovered, and re-dispatched.
	if s, ok := env2.Job(runningID); !ok || !s.Recovered {
		t.Fatalf("re-adopted running job = %+v (found %v)", s, ok)
	}

	// Admission parameters survive byte for byte.
	for i, j := range queued {
		s, ok := env2.Job(j.ID)
		if !ok {
			t.Fatalf("queued job %s lost in recovery", j.ID)
		}
		if s.Owner != "alice" || s.Priority != priorities[i] || s.ShareWeight != 4 {
			t.Fatalf("job %s recovered as %+v, want owner=alice priority=%d weight=4",
				j.ID, s, priorities[i])
		}
		if i == 0 {
			if !s.Deadline.Equal(deadline) {
				t.Fatalf("job %s deadline = %v, want %v", j.ID, s.Deadline, deadline)
			}
			if s.Labels["team"] != "ops" {
				t.Fatalf("job %s labels = %v, want team=ops", j.ID, s.Labels)
			}
		}
	}

	// A post-restart submission must not collide with recovered IDs.
	fresh, err := env2.Submit(ctx, spinJobGraph("post-restart", 1), WithOwner("alice"), WithPriority(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := env.Job(fresh.ID); clash {
		t.Fatalf("post-restart job reused ID %s", fresh.ID)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("post-restart drain: %v", err)
	}
	for _, id := range append([]string{runningID, fresh.ID}, jobIDs(queued)...) {
		s, ok := env2.Job(id)
		if !ok || s.State != services.JobStateDone {
			t.Fatalf("job %s after drain = %+v (found %v)", id, s, ok)
		}
	}

	// Within one owner the recovered backlog drains in the pre-crash
	// dispatch order: priority descending (aging differences are dwarfed
	// by the 30s-per-level step). Completion order is dispatch order
	// because the pipeline is fully serialized.
	finished := make([]*Job, len(queued))
	copy(finished, queued)
	sort.Slice(finished, func(a, b int) bool {
		sa, _ := env2.Job(finished[a].ID)
		sb, _ := env2.Job(finished[b].ID)
		return sa.FinishedAt.Before(sb.FinishedAt)
	})
	var got []int
	for _, j := range finished {
		s, _ := env2.Job(j.ID)
		got = append(got, s.Priority)
	}
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(got))) {
		t.Fatalf("recovered backlog completed in priority order %v, want descending", got)
	}
}

// TestEditedGraphRecoversPerSubmission: the durable log recognizes a
// graph it has already written by the graph's bytes, not by the pointer
// a client submits. One *afg.Graph is submitted, edited once that job
// has finished, and submitted twice more; after a crash the first job is
// restored with the application as it was, the later two re-run the
// edited one, and the log holds the two versions once each.
func TestEditedGraphRecoversPerSubmission(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	app := spinJobGraph("edit-v1", 1)
	first, err := env.Submit(ctx, app, WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	app.Name = "edit-v2"
	extra := app.AddTask("Spin", "util", 0, 1)
	app.Tasks[extra].Props.Args = map[string]string{"ms": "2"}

	env.Console.Suspend()
	blocker, err := env.Submit(ctx, spinJobGraph("blocker", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, JobRunning)
	var edited []*Job
	for i := 0; i < 2; i++ {
		j, err := env.Submit(ctx, app, WithOwner("alice"))
		if err != nil {
			t.Fatal(err)
		}
		edited = append(edited, j)
	}
	env.Crash()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	recovered := env2.Store.Recovered().Jobs
	v1, v2 := recovered[first.ID].Graph, recovered[edited[0].ID].Graph
	if len(v1) == 0 || len(v2) == 0 || string(v1) == string(v2) {
		t.Fatalf("the two versions were recovered as\n%s\n%s", v1, v2)
	}
	if &v2[0] != &recovered[edited[1].ID].Graph[0] {
		t.Error("two submissions of the edited graph were recovered as two copies, not one interned entry")
	}

	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, c := range []struct {
		id    string
		app   string
		tasks int
	}{{first.ID, "edit-v1", 1}, {edited[0].ID, "edit-v2", 2}, {edited[1].ID, "edit-v2", 2}} {
		status, ok := env2.Job(c.id)
		if !ok || status.State != services.JobStateDone || status.App != c.app {
			t.Fatalf("%s after restart = %+v (found %v), want %s done", c.id, status, ok, c.app)
		}
		if g, err := afg.DecodeJSON(recovered[c.id].Graph); err != nil || len(g.Tasks) != c.tasks {
			t.Fatalf("%s (%s) came back as %v, want %d tasks", c.id, c.app, err, c.tasks)
		}
	}
}

func jobIDs(jobs []*Job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	return ids
}

// TestGracefulRestartRecovery checks the Close-side contract: a
// graceful shutdown fails in-flight work with ErrPipelineClosed in
// memory, but durably those jobs stay queued/running (persistence of
// shutdown-induced terminals is suppressed), so the next boot re-adopts
// them. It also checks the event-stream restart contract: the new
// broker's cursors start above every pre-restart cursor, and a stale
// Last-Event-ID resume is detected as a gap instead of silently
// replaying the wrong events.
func TestGracefulRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	env.Console.Suspend()
	runningJob, err := env.Submit(ctx, spinJobGraph("g-running", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, runningJob, JobRunning)
	var queued []*Job
	for i := 0; i < 3; i++ {
		j, err := env.Submit(ctx, spinJobGraph(fmt.Sprintf("g-backlog-%d", i), 1), WithOwner("alice"))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	// The one worker holds the first backlog job, waiting for the run
	// slot; the other two stay in the admission queue.
	waitState(t, queued[0], JobScheduling)
	preCursor := env.pipe.events.Cursor()
	env.Close()

	// In memory the graceful stop failed them; durably they are still
	// queued/running.
	if err := runningJob.Err(); err == nil {
		t.Fatal("running job reported success despite shutdown")
	} else if !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("running job failed with %v at Close, want ErrPipelineClosed", err)
	}
	for _, j := range queued[1:] {
		if j.State() != JobFailed || j.Err() != ErrPipelineClosed {
			t.Fatalf("queued job %s is %s with %v after Close, want failed with ErrPipelineClosed", j.ID, j.State(), j.Err())
		}
	}

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	rep := env2.Recovery()
	if rep.QueuedRecovered+rep.InFlightRedispatched != 1+len(queued) {
		t.Fatalf("graceful restart recovered %+v, want %d non-terminal jobs", rep, 1+len(queued))
	}

	// The restarted broker's first cursor is strictly above every cursor
	// the previous incarnation issued...
	if got := env2.pipe.events.Cursor(); got <= preCursor {
		t.Fatalf("restarted broker cursor = %d, want > pre-restart %d", got, preCursor)
	}
	// ...so a client resuming with a pre-restart cursor is told it missed
	// events (the SSE layer then sends its reset comment and a snapshot)
	// rather than silently resuming with a gap.
	sub, _, missed := env2.pipe.events.Subscribe(preCursor, 1, nil)
	sub.Close()
	if !missed {
		t.Fatal("stale pre-restart cursor resumed without a gap signal")
	}

	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range append(queued, runningJob) {
		s, ok := env2.Job(j.ID)
		if !ok || s.State != services.JobStateDone {
			t.Fatalf("job %s after graceful restart = %+v (found %v)", j.ID, s, ok)
		}
	}
}

// TestOwnerAdminPersistsAcrossRestart drives the PATCH-backed owner
// admin path through Environment.UpdateOwner, restarts gracefully, and
// checks the pinned weight and quota override both survive and are
// enforced by the recovered admission queue.
func TestOwnerAdminPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	weight, maxQueued := 7, 2
	s, err := env.UpdateOwner("alice", services.OwnerUpdate{Weight: &weight, MaxQueued: &maxQueued})
	if err != nil {
		t.Fatal(err)
	}
	if s.Weight != 7 || !s.WeightPinned || s.MaxQueued != 2 {
		t.Fatalf("UpdateOwner returned %+v", s)
	}
	if _, err := env.UpdateOwner("alice", services.OwnerUpdate{}); err == nil {
		t.Fatal("empty owner update accepted")
	}
	env.Close()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	var found bool
	for _, o := range env2.Owners() {
		if o.Owner == "alice" {
			found = true
			if o.Weight != 7 || !o.WeightPinned || o.MaxQueued != 2 {
				t.Fatalf("recovered owner admin = %+v", o)
			}
		}
	}
	if !found {
		t.Fatal("owner admin record lost across restart")
	}

	// The recovered cap is live: hold the single worker busy so alice's
	// submissions stay queued, then exceed the recovered MaxQueued of 2.
	// A running job frees the worker, which would pop alice's first
	// submission; so "hold" takes the one run slot (the suspended console
	// keeps it running) and "wait" keeps the worker blocked on that slot.
	ctx := context.Background()
	env2.Console.Suspend()
	hold, err := env2.Submit(ctx, spinJobGraph("hold", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hold, JobRunning)
	wait, err := env2.Submit(ctx, spinJobGraph("wait", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, wait, JobScheduling)
	for i := 0; i < 2; i++ {
		if _, err := env2.Submit(ctx, spinJobGraph(fmt.Sprintf("capped-%d", i), 1), WithOwner("alice")); err != nil {
			t.Fatalf("submission %d under the cap rejected: %v", i, err)
		}
	}
	if _, err := env2.Submit(ctx, spinJobGraph("over-cap", 1), WithOwner("alice")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-cap submission error = %v, want ErrQuotaExceeded", err)
	}
	env2.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDeadlineExpiredAtReplay pins the recovery-replay deadline gap:
// a job that was queued at the crash and whose deadline passed while
// the control plane was down must be terminalized as deadline-exceeded
// during replay — with a stream event, visible in the recovery report —
// and must never be dispatched, instead of being re-admitted and
// burning scheduler and host capacity on work that is already lost.
func TestDeadlineExpiredAtReplay(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Hold the single run slot so the deadline job stays queued.
	env.Console.Suspend()
	hold, err := env.Submit(ctx, spinJobGraph("hold", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hold, JobRunning)

	deadline := time.Now().Add(50 * time.Millisecond).Truncate(time.Millisecond)
	doomed, err := env.Submit(ctx, spinJobGraph("doomed", 1),
		WithOwner("alice"), WithDeadline(deadline))
	if err != nil {
		t.Fatal(err)
	}
	// A sibling without a deadline must still be re-admitted normally.
	survivor, err := env.Submit(ctx, spinJobGraph("survivor", 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	env.Crash()

	// The control plane stays down past the doomed job's deadline.
	time.Sleep(time.Until(deadline) + 20*time.Millisecond)

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()

	rep := env2.Recovery()
	if rep.DeadlineExpiredAtReplay != 1 {
		t.Fatalf("DeadlineExpiredAtReplay = %d, want 1: %+v", rep.DeadlineExpiredAtReplay, rep)
	}
	s, ok := env2.Job(doomed.ID)
	if !ok {
		t.Fatalf("expired job %s lost in recovery", doomed.ID)
	}
	if s.State != services.JobStateFailed || s.Error != ErrJobDeadlineExceeded.Error() {
		t.Fatalf("expired job recovered as %+v, want failed/deadline-exceeded", s)
	}
	if !s.FinishedAt.Equal(deadline) {
		t.Fatalf("expired job finished at %v, want its deadline %v", s.FinishedAt, deadline)
	}

	// The terminalization was published to the event stream (unlike
	// plain terminal restores, which rebuild the board silently).
	// after=1 (not 0, which subscribes to new events only) replays the
	// retained ring: the replay-time terminalization must be in it.
	sub, replay, _ := env2.pipe.events.Subscribe(1, 8, nil)
	defer sub.Close()
	var streamed bool
	for _, ev := range replay {
		if ev.Job.ID == doomed.ID && ev.Job.State == services.JobStateFailed {
			streamed = true
		}
	}
	if !streamed {
		t.Fatal("deadline-expired terminalization produced no stream event")
	}

	// The expired job is terminal now, a row and no live record, without
	// ever dispatching, and the rest of the recovered workload drains to
	// done around it.
	if _, live := env2.pipe.job(doomed.ID); live {
		t.Fatalf("expired job %s is still live in the pipeline", doomed.ID)
	}
	if !s.StartedAt.IsZero() {
		t.Fatalf("expired job has a start time %v: it was dispatched", s.StartedAt)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{hold.ID, survivor.ID} {
		if s, ok := env2.Job(id); !ok || s.State != services.JobStateDone {
			t.Fatalf("job %s after drain = %+v (found %v)", id, s, ok)
		}
	}
	// A second restart retains the expired job as plain terminal — no
	// double-count of the replay terminalization.
	env2.Close()
	env3, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer env3.Close()
	if rep := env3.Recovery(); rep.DeadlineExpiredAtReplay != 0 {
		t.Fatalf("second replay re-expired the job: %+v", rep)
	}
	if s, ok := env3.Job(doomed.ID); !ok || s.State != services.JobStateFailed {
		t.Fatalf("expired job after second restart = %+v (found %v)", s, ok)
	}
}
