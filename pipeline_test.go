package vdce

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// soakGraph builds the i-th application of a mixed workload: alternating
// Linear Equation Solver and C3I pipeline instances of varying sizes.
func soakGraph(t testing.TB, i int) *afg.Graph {
	t.Helper()
	var g *afg.Graph
	var err error
	if i%2 == 0 {
		g, err = tasklib.BuildLinearEquationSolver(16+8*(i%3), int64(i+1))
	} else {
		g, err = tasklib.BuildC3IPipeline(6+2*(i%3), int64(i+1))
	}
	if err != nil {
		t.Fatal(err)
	}
	clearMachineTypes(g)
	g.Name = fmt.Sprintf("%s#%d", g.Name, i)
	return g
}

// clearMachineTypes drops the builders' machine-type preferences: the
// fabricated testbed mixes machine types arbitrarily, so every host
// should be eligible.
func clearMachineTypes(g *afg.Graph) {
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
}

// TestConcurrentSubmissionSoak drives 32 concurrent applications through
// Environment.Submit on a multi-site testbed and checks that every job
// completes, the lifecycle board agrees, and the engine really had more
// than one application in flight.
func TestConcurrentSubmissionSoak(t *testing.T) {
	const jobs = 32
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: 31, BaseLoadMax: 0.2},
	})
	ctx := context.Background()

	handles := make([]*Job, jobs)
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		g := soakGraph(t, i)
		job, err := env.Submit(ctx, g, WithMaxHosts(2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		handles[i] = job
		go func() { errs <- job.Wait(ctx) }()
	}

	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < jobs; i++ {
		if err := <-errs; err != nil {
			t.Errorf("job failed: %v", err)
		}
	}

	seen := make(map[string]bool, jobs)
	for i, job := range handles {
		if got := job.State(); got != JobDone {
			t.Fatalf("job %d state = %v, err = %v", i, got, job.Err())
		}
		if seen[job.ID] {
			t.Fatalf("duplicate job ID %s", job.ID)
		}
		seen[job.ID] = true
		table, res := job.Table(), job.Result()
		if table == nil || res == nil {
			t.Fatalf("job %d missing artifacts", i)
		}
		if err := table.Validate(job.Graph); err != nil {
			t.Errorf("job %d table: %v", i, err)
		}
		if len(res.Runs) < len(job.Graph.Tasks) {
			t.Errorf("job %d recorded %d runs for %d tasks", i, len(res.Runs), len(job.Graph.Tasks))
		}
		st := job.Status()
		if st.StartedAt.Before(st.SubmittedAt) || st.FinishedAt.Before(st.StartedAt) {
			t.Errorf("job %d timestamps out of order: %+v", i, st)
		}
	}

	counts := env.Board.Counts()
	if counts[services.JobStateDone] != jobs {
		t.Fatalf("board counts = %v, want %d done", counts, jobs)
	}
	if inFlight := env.Board.InFlight(); inFlight != 0 {
		t.Fatalf("board still reports %d jobs in flight", inFlight)
	}
	if got := len(env.Jobs()); got != jobs {
		t.Fatalf("Jobs() = %d entries, want %d", got, jobs)
	}
	if peak := env.Engine.PeakConcurrency(); peak < 2 {
		t.Errorf("engine peak concurrency = %d, want > 1", peak)
	}
}

// TestConcurrentSubmissionAcrossSites runs a smaller concurrent batch
// whose rounds span three sites: three scheduler workers, each round
// multicast to two neighbours.
func TestConcurrentSubmissionAcrossSites(t *testing.T) {
	const jobs = 8
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 3, HostsPerGroup: 2, Seed: 32, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{SchedulerWorkers: 3},
	})
	ctx := context.Background()
	for i := 0; i < jobs; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, i), WithMaxHosts(2)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, st := range env.Jobs() {
		if st.State != services.JobStateDone {
			t.Fatalf("job %s ended %s (%s)", st.ID, st.State, st.Error)
		}
	}
}

// TestOwnedSubmitRespectsAccessDomain checks that a local-domain user's
// pipelined submission never leaves the home sites.
func TestOwnedSubmitRespectsAccessDomain(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 3, HostsPerGroup: 2, Seed: 33},
	})
	users := env.Sites[0].Repo.Users
	if _, err := users.AddUser("loc", "p", 0, repository.DomainLocal); err != nil {
		t.Fatal(err)
	}
	g := soakGraph(t, 1)
	job, err := env.Submit(context.Background(), g, WithOwner("loc"), WithMaxHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A local-domain user's tasks must all stay on the submitting site.
	home := env.Sites[0].SiteName()
	for _, e := range job.Table().Entries {
		if e.Site != home {
			t.Fatalf("local-domain task placed on %s, want %s", e.Site, home)
		}
	}
}

// TestPipelineRetentionBound verifies that terminal jobs are evicted
// once the retention cap is exceeded, so long-running servers do not
// accumulate finished jobs forever.
func TestPipelineRetentionBound(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 37},
		Pipeline: PipelineConfig{MaxRetainedJobs: 4},
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		job, err := env.Submit(ctx, soakGraph(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction happens at admission time, so at most cap+1 jobs remain.
	if got := len(env.Jobs()); got > 5 {
		t.Fatalf("board retains %d jobs, cap is 4", got)
	}
	// The newest job must still be present.
	if _, ok := env.Board.Get("job-10"); !ok {
		t.Fatal("newest job evicted")
	}
	if _, ok := env.Board.Get("job-1"); ok {
		t.Fatal("oldest terminal job not evicted")
	}
}

// TestSubmitRejectsInvalidGraph verifies admission-time validation.
func TestSubmitRejectsInvalidGraph(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 34}})
	if _, err := env.Submit(context.Background(), afg.NewGraph("empty")); err == nil {
		t.Fatal("empty graph admitted")
	}
	if got := len(env.Jobs()); got != 0 {
		t.Fatalf("invalid submission reached the board: %d entries", got)
	}
}

// TestSubmitAfterCloseFails verifies shutdown semantics: submissions
// after Close are rejected and queued jobs fail with ErrPipelineClosed.
func TestSubmitAfterCloseFails(t *testing.T) {
	env, err := New(Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 35}})
	if err != nil {
		t.Fatal(err)
	}
	env.Close()
	if _, err := env.Submit(context.Background(), soakGraph(t, 0)); err != ErrPipelineClosed {
		t.Fatalf("Submit after Close = %v, want ErrPipelineClosed", err)
	}
}

// TestSubmitHonorsCallerContext verifies that a canceled admission
// context aborts Submit even when the queue is saturated, and that the
// blocked submission leaves no trace: the queue slot is claimed before
// the job is registered, persisted or published, so a submission that
// never got one has no board row, no count and no record in the store.
func TestSubmitHonorsCallerContext(t *testing.T) {
	cfg := Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 36},
		// One worker, minimal queue, single-run dispatch: easy to fill.
		Pipeline: PipelineConfig{QueueDepth: 1, SchedulerWorkers: 1, MaxConcurrentRuns: 1},
		StoreDir: t.TempDir(),
	}
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			env.Console.Resume()
			env.Close()
		}
	}()
	// Suspend the console so running jobs park and the queue backs up.
	env.Console.Suspend()
	ctx := context.Background()
	accepted := make(map[string]bool)
	blocked := false
	for i := 0; i < 6 && !blocked; i++ {
		expiring, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		job, err := env.Submit(expiring, soakGraph(t, i))
		cancel()
		switch {
		case err == nil:
			accepted[job.ID] = true
		case errors.Is(err, context.DeadlineExceeded):
			// The queue filled and the context expired: the expected path.
			blocked = true
		default:
			t.Fatalf("submit %d failed before ctx expiry: %v", i, err)
		}
	}
	if !blocked {
		t.Fatal("queue never backpressured with a suspended console")
	}
	sameIDs := func(what string, rows []services.JobStatus) {
		t.Helper()
		if len(rows) != len(accepted) {
			t.Fatalf("%s lists %d jobs, want the %d accepted", what, len(rows), len(accepted))
		}
		for _, r := range rows {
			if !accepted[r.ID] {
				t.Fatalf("%s lists %s, which Submit never returned", what, r.ID)
			}
		}
	}
	sameIDs("the board", env.Jobs())
	if n := env.CountJobs("", ""); n != len(accepted) {
		t.Fatalf("CountJobs = %d, want the %d accepted", n, len(accepted))
	}

	env.Console.Resume()
	drainCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	env.Close()
	closed = true
	reopened, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	sameIDs("the reopened store", reopened.Jobs())
}

// TestJobStateStrings pins the services-layer names the board publishes.
func TestJobStateStrings(t *testing.T) {
	cases := map[JobState]string{
		JobQueued:     services.JobStateQueued,
		JobScheduling: services.JobStateScheduling,
		JobRunning:    services.JobStateRunning,
		JobDone:       services.JobStateDone,
		JobFailed:     services.JobStateFailed,
		JobCanceled:   services.JobStateCanceled,
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}

// TestSubmitAllocBudget pins what one job costs from Submit to Done: a
// single-task job, every allocation the admission queue, the scheduling
// round, the engine, the board and the broker make for it. The caller's
// handle and its weak link from the pipeline's record cost two; a job ID
// appended into a stack buffer instead of fmt.Sprintf, a timings block
// inside the record and attribute-typed log lines paid them back. A job
// cost 85 before the handle split from the record and 81 after; the
// budget stays at 85.
func TestSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const budget = 85
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2801}})
	g := spinJobGraph("alloc", 0)
	ctx := context.Background()
	run := func() {
		job, err := env.Submit(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for range 64 {
		run() // warm the rank cache, the pools and the board
	}
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("Submit+Wait of a one-task job: %.0f allocations (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("a job costs %.0f allocations from Submit to Done, over the %d budget", allocs, budget)
	}
}
