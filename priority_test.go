package vdce

import (
	"context"
	"errors"
	"testing"
	"time"

	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

// saturatedEnv builds an environment whose pipeline is easy to choke:
// one scheduler worker, one run slot, a deep admission queue, and the
// console suspended so the first dispatched job parks and everything
// behind it stays queued. The caller resumes the console to release the
// backlog.
func saturatedEnv(t *testing.T, seed int64, aging time.Duration) *Environment {
	t.Helper()
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: seed},
		Pipeline: PipelineConfig{
			QueueDepth:        64,
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 1,
			AgingStep:         aging,
		},
	})
	env.Console.Suspend()
	return env
}

// TestPriorityOvertakesSaturatedQueue is the admission-ordering soak: a
// saturated queue of low-priority jobs is overtaken by one high-priority
// submission, which must finish before every job that was still queued
// when it arrived.
func TestPriorityOvertakesSaturatedQueue(t *testing.T) {
	const lows = 8
	env := saturatedEnv(t, 71, 0)
	ctx := context.Background()

	lowJobs := make([]*Job, 0, lows)
	for i := 0; i < lows; i++ {
		job, err := env.Submit(ctx, soakGraph(t, 1), WithPriority(1))
		if err != nil {
			t.Fatalf("low submit %d: %v", i, err)
		}
		lowJobs = append(lowJobs, job)
	}
	high, err := env.Submit(ctx, soakGraph(t, 3), WithPriority(100))
	if err != nil {
		t.Fatalf("high submit: %v", err)
	}
	// The high-priority job must be next in line (position 1) — or 0 if
	// the worker already claimed it, which is overtaking too.
	if pos := high.Status().QueuePosition; pos > 1 {
		t.Fatalf("high-priority job queue position = %d, want <= 1", pos)
	}

	env.Console.Resume()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := high.Err(); err != nil {
		t.Fatalf("high-priority job failed: %v", err)
	}
	// The worker had at most 2 jobs in hand (one scheduling, one parked
	// in the run slot) when the high-priority job arrived; every other
	// low-priority job was still in the admission queue and must have
	// started after the high-priority one.
	started := high.Status().StartedAt
	overtaken := 0
	for i, low := range lowJobs {
		if low.Err() != nil {
			t.Fatalf("low job %d failed: %v", i, low.Err())
		}
		if low.Status().StartedAt.After(started) {
			overtaken++
		}
	}
	if overtaken < lows-2 {
		t.Fatalf("high-priority job overtook only %d of %d queued low-priority jobs", overtaken, lows)
	}
}

// TestAgingPreventsStarvation proves starvation protection: with a small
// AgingStep, a low-priority job that has waited long enough outranks a
// much higher-priority job enqueued later, because effective priority
// rises by one level per AgingStep of waiting.
func TestAgingPreventsStarvation(t *testing.T) {
	const step = 5 * time.Millisecond
	env := saturatedEnv(t, 72, step)
	ctx := context.Background()

	// Two sacrificial jobs occupy the worker (one scheduling, one parked
	// in the run slot) so the jobs under test stay in the queue.
	for i := 0; i < 2; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, 1), WithPriority(1000)); err != nil {
			t.Fatal(err)
		}
	}
	// Give the worker a moment to drain both into scheduling/run-wait.
	time.Sleep(50 * time.Millisecond)

	starved, err := env.Submit(ctx, soakGraph(t, 1), WithPriority(0))
	if err != nil {
		t.Fatal(err)
	}
	// Wait many aging steps before submitting the high-priority rival:
	// priority 10 is outweighed by > 10 steps of waiting.
	time.Sleep(20 * step)
	rival, err := env.Submit(ctx, soakGraph(t, 3), WithPriority(10))
	if err != nil {
		t.Fatal(err)
	}

	if pos := starved.Status().QueuePosition; pos != 1 {
		t.Fatalf("aged low-priority job queue position = %d, want 1 (rival at %d)",
			pos, rival.Status().QueuePosition)
	}
	env.Console.Resume()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if starved.Status().StartedAt.After(rival.Status().StartedAt) {
		t.Fatal("aged low-priority job started after the later high-priority rival: starved")
	}
}

// TestOwnerAccountPriorityIsDefault checks the priority default chain:
// owned jobs inherit the user-account priority, WithPriority overrides
// it, anonymous jobs default to 0.
func TestOwnerAccountPriorityIsDefault(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 73}})
	ctx := context.Background()
	g := soakGraph(t, 1)

	// The provisioned account user_k has priority 5.
	owned, err := env.Submit(ctx, g, WithOwner("user_k"))
	if err != nil {
		t.Fatal(err)
	}
	if got := owned.Priority(); got != 5 {
		t.Errorf("owned job priority = %d, want the account's 5", got)
	}
	overridden, err := env.Submit(ctx, g, WithOwner("user_k"), WithPriority(9))
	if err != nil {
		t.Fatal(err)
	}
	if got := overridden.Priority(); got != 9 {
		t.Errorf("overridden priority = %d, want 9", got)
	}
	anon, err := env.Submit(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := anon.Priority(); got != 0 {
		t.Errorf("anonymous priority = %d, want 0", got)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
}

// TestCancelQueuedJob verifies that canceling a queued job drops it
// before any scheduling work: terminal state canceled, ErrJobCanceled
// from Wait, and the job never starts.
func TestCancelQueuedJob(t *testing.T) {
	env := saturatedEnv(t, 74, 0)
	ctx := context.Background()
	// Occupy the worker and run slot.
	for i := 0; i < 2; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, 1), WithPriority(10)); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := env.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if err := victim.Wait(ctx); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Wait after cancel = %v, want ErrJobCanceled", err)
	}
	if got := victim.State(); got != JobCanceled {
		t.Fatalf("state = %v, want JobCanceled", got)
	}
	if !victim.Status().StartedAt.IsZero() {
		t.Fatal("canceled queued job reports a start time")
	}
	// Cancel is idempotent.
	victim.Cancel()
	env.Console.Resume()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRunningJob verifies that Cancel flows into the execution
// engine's cancellation path: a running job (parked at the suspended
// console inside Execute) terminalizes as canceled.
func TestCancelRunningJob(t *testing.T) {
	env := saturatedEnv(t, 75, 0)
	ctx := context.Background()
	job, err := env.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running (parked at the console gate).
	deadline := time.Now().Add(30 * time.Second)
	for job.State() != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started running; state %v", job.State())
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := job.Wait(waitCtx); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Wait after running cancel = %v, want ErrJobCanceled", err)
	}
	if got := job.State(); got != JobCanceled {
		t.Fatalf("state = %v, want JobCanceled", got)
	}
}

// TestDeadlineDropsQueuedJob verifies that a queued job whose deadline
// expires is dropped before it reaches a scheduler worker.
func TestDeadlineDropsQueuedJob(t *testing.T) {
	env := saturatedEnv(t, 76, 0)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, 1), WithPriority(10)); err != nil {
			t.Fatal(err)
		}
	}
	doomed, err := env.Submit(ctx, soakGraph(t, 1),
		WithDeadline(time.Now().Add(20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	// Eager expiry: the job terminalizes at its deadline while the queue
	// is still choked — no worker pop, no console resume needed.
	expCtx, cancelExp := context.WithTimeout(ctx, 10*time.Second)
	defer cancelExp()
	if err := doomed.Wait(expCtx); !errors.Is(err, ErrJobDeadlineExceeded) {
		t.Fatalf("Wait = %v, want ErrJobDeadlineExceeded", err)
	}
	env.Console.Resume()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if !doomed.Status().StartedAt.IsZero() {
		t.Fatal("deadline-dropped job reports a start time")
	}
	if err := env.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline is rejected at submit time.
	if _, err := env.Submit(ctx, soakGraph(t, 1),
		WithDeadline(time.Now().Add(-time.Second))); !errors.Is(err, ErrJobDeadlineExceeded) {
		t.Fatalf("expired-deadline submit = %v, want ErrJobDeadlineExceeded", err)
	}
}

// TestWaitPrefersJobErrorOverContext pins the Done/Wait contract: a job
// that is already terminal reports its own error even when Wait's ctx is
// also done.
func TestWaitPrefersJobErrorOverContext(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 77}})
	ctx := context.Background()
	job, err := env.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()
	// Terminal job + dead context: the job's own (nil) error wins.
	if err := job.Wait(canceledCtx); err != nil {
		t.Fatalf("Wait on finished job with canceled ctx = %v, want nil", err)
	}
	// A failed job reports its failure, not the ctx error.
	bad, err := env.Submit(ctx, soakGraph(t, 1), WithHomeSite(0), WithMaxHosts(99))
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if bad.Err() != nil {
		// k is clamped by the scheduler, so this may legitimately
		// succeed; only check consistency between Wait and Err.
		if werr := bad.Wait(canceledCtx); !errors.Is(werr, bad.Err()) {
			t.Fatalf("Wait = %v, Err = %v; want Wait to report the job error", werr, bad.Err())
		}
	}
	// In-flight job + dead context: Wait returns the ctx error.
	env2 := saturatedEnv(t, 78, 0)
	parked, err := env2.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := parked.Wait(canceledCtx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on in-flight job with canceled ctx = %v, want context.Canceled", err)
	}
	env2.Console.Resume()
	waitCtx, cancelWait := context.WithTimeout(ctx, 2*time.Minute)
	defer cancelWait()
	if err := env2.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
}

// walkJobs follows the keyset cursor to the end of the listing, a few
// rows a page so every walk crosses page boundaries.
func walkJobs(env *Environment, owner, state string) []services.JobStatus {
	var all []services.JobStatus
	var after jobsapi.Cursor
	for {
		page, more := env.ListJobsAfter(owner, state, after, 3)
		all = append(all, page...)
		if !more {
			return all
		}
		after = jobsapi.CursorOf(page[len(page)-1])
	}
}

// TestListJobsFiltersAndOrders covers Environment.ListJobsAfter:
// owner/state filtering and stable (submit time, then ID) ordering with
// live queue positions.
func TestListJobsFiltersAndOrders(t *testing.T) {
	env := saturatedEnv(t, 79, 0)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("user_k")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.Submit(ctx, soakGraph(t, 1)); err != nil {
		t.Fatal(err)
	}

	all := walkJobs(env, "", "")
	if len(all) != 5 {
		t.Fatalf("listing (all) = %d entries, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].SubmittedAt.Before(all[i-1].SubmittedAt) {
			t.Fatalf("listing out of submit order at %d: %+v", i, all)
		}
	}
	owned := walkJobs(env, "user_k", "")
	if len(owned) != 4 {
		t.Fatalf("listing (user_k) = %d entries, want 4", len(owned))
	}
	queued := walkJobs(env, "", services.JobStateQueued)
	for _, s := range queued {
		if s.QueuePosition == 0 {
			t.Fatalf("queued job %s has no queue position: %+v", s.ID, s)
		}
	}
	if _, ok := env.Job(all[0].ID); !ok {
		t.Fatalf("Job(%s) not found", all[0].ID)
	}
	if _, ok := env.Job("job-404"); ok {
		t.Fatal("Job of unknown ID succeeded")
	}
	if err := env.CancelJob("job-404"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("CancelJob(unknown) = %v, want ErrUnknownJob", err)
	}
	env.Console.Resume()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env.Drain(waitCtx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineTimerNeverOutlivesTheJob: a job's context carries its
// deadline timer and is a child of the environment's, and its drop hook
// is registered on it; either, left behind, would hold the job — graph,
// table, result — until the deadline, outside both retention bounds.
// After Done, the job holds no context, cancel function or hook: its
// terminalize canceled the context, detaching it and the timer.
func TestDeadlineTimerNeverOutlivesTheJob(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 78}})
	g := spinJobGraph("one-task", 0)
	for i := 0; i < 200; i++ {
		job, err := env.Submit(context.Background(), g, WithDeadline(time.Now().Add(time.Hour)))
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		job.mu.Lock()
		ctx, cancel, stop := job.ctx, job.cancel, job.stop
		job.mu.Unlock()
		if ctx != nil || cancel != nil || stop != nil {
			t.Fatalf("job %d is %s and still holds its context (%v), cancel (%v) or hook (%v)",
				i, job.State(), ctx != nil, cancel != nil, stop != nil)
		}
	}
}
