package vdce

import (
	"context"
	"strings"
	"testing"
	"time"

	"vdce/internal/services"
	"vdce/internal/testbed"
)

// phaseIndex returns the position of the first trace event named ev, or
// -1 when the trace never recorded it.
func phaseIndex(tr services.JobTrace, ev string) int {
	for i, e := range tr.Events {
		if e.Event == ev {
			return i
		}
	}
	return -1
}

// checkTracePin asserts the lifecycle-trace contract every terminal job
// must satisfy: the chain starts at submitted, ends at the terminal
// state, timestamps never go backwards, and the timings block is
// present with a coherent total. fullChain additionally requires every
// intermediate phase (admitted, scheduled, dispatched, running) — true
// for jobs that executed in this incarnation, false for terminal
// restores recovered from the store, whose intermediate stamps died
// with the previous process.
func checkTracePin(t *testing.T, tr services.JobTrace, fullChain bool) {
	t.Helper()
	if tr.State != services.JobStateDone && tr.State != services.JobStateFailed && tr.State != services.JobStateCanceled {
		t.Fatalf("job %s: checkTracePin on non-terminal state %q", tr.ID, tr.State)
	}
	if len(tr.Events) < 2 {
		t.Fatalf("job %s: trace has %d events, want >= 2: %+v", tr.ID, len(tr.Events), tr.Events)
	}
	if tr.Events[0].Event != services.PhaseSubmitted {
		t.Fatalf("job %s: trace starts with %q, want %q", tr.ID, tr.Events[0].Event, services.PhaseSubmitted)
	}
	if last := tr.Events[len(tr.Events)-1].Event; last != tr.State {
		t.Fatalf("job %s: trace ends with %q, want terminal state %q", tr.ID, last, tr.State)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At.Before(tr.Events[i-1].At) {
			t.Fatalf("job %s: trace time went backwards at %d: %v after %v (%q -> %q)",
				tr.ID, i, tr.Events[i].At, tr.Events[i-1].At,
				tr.Events[i-1].Event, tr.Events[i].Event)
		}
	}
	if fullChain {
		chain := []string{
			services.PhaseSubmitted, services.PhaseAdmitted, services.PhaseScheduled,
			services.PhaseDispatched, services.PhaseRunning,
		}
		if tr.State == services.JobStateCanceled {
			// A job canceled before dispatch legitimately stops mid-chain;
			// require only the prefix through admission.
			chain = chain[:2]
		}
		prev := -1
		for _, ph := range chain {
			i := phaseIndex(tr, ph)
			if i < 0 {
				t.Fatalf("job %s (%s): trace missing phase %q: %+v", tr.ID, tr.State, ph, tr.Events)
			}
			if i <= prev {
				t.Fatalf("job %s: phase %q at %d out of order (previous phase at %d)", tr.ID, ph, i, prev)
			}
			prev = i
		}
	}
	if tr.Timings == nil {
		t.Fatalf("job %s: terminal job has no timings block", tr.ID)
	}
	if tr.Timings.SubmittedAt.IsZero() || tr.Timings.FinishedAt.IsZero() {
		t.Fatalf("job %s: timings missing endpoints: %+v", tr.ID, tr.Timings)
	}
	if tr.Timings.TotalSeconds < 0 {
		t.Fatalf("job %s: negative total %v", tr.ID, tr.Timings.TotalSeconds)
	}
}

// TestJobLifecycleTrace pins the per-job trace contract on a live
// environment: every terminal job — completed, canceled, whatever path
// it took — exposes a complete, monotone phase chain and a timings
// block via Environment.JobTrace.
func TestJobLifecycleTrace(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 7, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{SchedulerWorkers: 2, MaxConcurrentRuns: 2},
	})
	ctx := context.Background()

	jobs := make([]*Job, 0, 4)
	for i := 0; i < 4; i++ {
		j, err := env.Submit(ctx, spinJobGraph("trace", 1), WithOwner("alice"), WithPriority(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
	// One canceled job exercises the truncated-chain terminal path.
	canceled, err := env.Submit(ctx, spinJobGraph("trace-cancel", 2000), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	canceled.Cancel()
	_ = canceled.Wait(ctx)

	for _, j := range append(jobs, canceled) {
		tr, ok := env.JobTrace(j.ID)
		if !ok {
			t.Fatalf("no trace for job %s", j.ID)
		}
		checkTracePin(t, tr, true)
	}

	// Completed jobs must have fed the phase histograms.
	if n := env.Obs.Total("vdce_job_phase_seconds"); n < 4 {
		t.Fatalf("vdce_job_phase_seconds observations = %v, want >= 4", n)
	}
	if n := env.Obs.Total("vdce_jobs_completed_total"); n < 5 {
		t.Fatalf("vdce_jobs_completed_total = %v, want >= 5", n)
	}
}

// TestJobLifecycleTraceAcrossRestart pins the trace contract for
// recovered jobs: after a crash-restart, terminal restores keep a
// monotone submitted->terminal trace, and re-adopted jobs record a
// "recovered" marker followed by a full fresh phase chain.
func TestJobLifecycleTraceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	done, err := env.Submit(ctx, spinJobGraph("pre-done", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	env.Console.Suspend()
	running, err := env.Submit(ctx, spinJobGraph("pre-running", 1), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	queued, err := env.Submit(ctx, spinJobGraph("backlog", 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	env.Crash()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("post-restart drain: %v", err)
	}

	// The terminal restore: submitted -> done, no intermediate phases
	// (they died with the previous incarnation), still monotone.
	tr, ok := env2.JobTrace(done.ID)
	if !ok {
		t.Fatalf("no trace for retained job %s", done.ID)
	}
	checkTracePin(t, tr, false)

	// Re-adopted jobs ran to done here: full chain required, and the
	// in-flight one must carry the recovered marker.
	for _, id := range []string{running.ID, queued.ID} {
		tr, ok := env2.JobTrace(id)
		if !ok {
			t.Fatalf("no trace for recovered job %s", id)
		}
		checkTracePin(t, tr, true)
	}
	if tr, _ := env2.JobTrace(running.ID); phaseIndex(tr, "recovered") < 0 {
		t.Fatalf("re-dispatched job %s trace has no recovered marker: %+v", running.ID, tr.Events)
	}

	if n := env2.Obs.Total("vdce_recovery_jobs_total"); n != 3 {
		t.Fatalf("vdce_recovery_jobs_total = %v, want 3", n)
	}
}

// TestMetricsExpositionEndToEnd scrapes a live durable environment's
// registry and asserts every instrumented subsystem shows up in the
// Prometheus text: admission, scheduler, exec, quarantine, WAL, events.
func TestMetricsExpositionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.StartDetector = true
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	j, err := env.Submit(ctx, spinJobGraph("scrape", 1), WithOwner("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	env.Obs.WriteText(&sb)
	text := sb.String()
	for _, series := range []string{
		"vdce_admission_queue_depth",
		"vdce_admission_accepted_total",
		"vdce_admission_submit_wait_seconds_bucket",
		"vdce_scheduler_round_seconds_count",
		"vdce_scheduler_rankcache_total",
		"vdce_jobs_inflight",
		"vdce_retained_output_bytes",
		"vdce_outputs_evicted_total",
		"vdce_jobs_completed_total",
		"vdce_job_phase_seconds_bucket",
		"vdce_exec_dispatch_concurrency",
		"vdce_exec_retries_total",
		"vdce_exec_frames_total",
		"vdce_exec_transfer_bytes_total",
		"vdce_breaker_hosts",
		"vdce_wal_append_seconds_bucket",
		"vdce_wal_fsync_batch_records_count",
		`vdce_store_compactions_total{outcome="ok"}`,
		`vdce_store_compactions_total{outcome="error"}`,
		"vdce_events_published_total",
		"vdce_events_subscribers",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing series %s", series)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
	if env.Obs.Total("vdce_scheduler_round_seconds") < 1 {
		t.Error("no scheduler rounds observed")
	}
	if env.Obs.Total("vdce_wal_append_seconds") < 1 {
		t.Error("no WAL appends observed")
	}
	if env.Obs.Total("vdce_events_published_total") < 1 {
		t.Error("no events published")
	}
}
