package vdce

// A job ends one way: its one context carries Cancel, the deadline and
// shutdown from admission to the engine, and end maps the cause to the
// terminal state.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/services"
	"vdce/internal/testbed"
)

// TestDeadlineCoversTheWaitForARunSlot: a scheduled job waiting on the
// worker for the only run slot fails at its deadline — it never
// dispatches or runs, and the worker it held takes the next job — while
// the slot is still held at the suspended console.
func TestDeadlineCoversTheWaitForARunSlot(t *testing.T) {
	env := saturatedEnv(t, 2601, 0)
	ctx := context.Background()
	holder, err := env.Submit(ctx, spinJobGraph("holder", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, holder, JobRunning)
	deadline := time.Now().Add(100 * time.Millisecond)
	doomed, err := env.Submit(ctx, spinJobGraph("doomed", 1), WithDeadline(deadline))
	if err != nil {
		t.Fatal(err)
	}
	next, err := env.Submit(ctx, spinJobGraph("next", 1))
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithDeadline(ctx, deadline.Add(250*time.Millisecond))
	defer cancel()
	if err := doomed.Wait(waitCtx); !errors.Is(err, ErrJobDeadlineExceeded) {
		t.Fatalf("Wait = %v with the job %s, want ErrJobDeadlineExceeded within 250 ms of the deadline",
			err, doomed.State())
	}
	if got := doomed.Err(); got != ErrJobDeadlineExceeded {
		t.Fatalf("Err = %v, want the bare ErrJobDeadlineExceeded of a job that never ran", got)
	}
	var chain []string
	for _, ev := range doomed.Trace().Events {
		chain = append(chain, ev.Event)
	}
	if got := strings.Join(chain, " "); got != "submitted admitted scheduled failed" {
		t.Fatalf("trace %q, want the job to fail after its round, before any dispatch", got)
	}
	waitState(t, next, JobScheduling)
	if holder.State() != JobRunning {
		t.Fatalf("holder is %s: the slot was not held throughout", holder.State())
	}
	env.Console.Resume()
	drainCtx, cancelDrain := context.WithTimeout(ctx, time.Minute)
	defer cancelDrain()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if err := next.Err(); err != nil {
		t.Fatalf("next job: %v", err)
	}
}

// TestExactlyOnceTerminalState drives jobs into every phase a job can
// wait in — queued behind a choked queue, parked on MaxHostsPerOwner,
// waiting for a run slot, running at the suspended console — and fires a
// fixed-seed subset of Cancel, a deadline 0–2 ms away, Close and
// Console.Resume at them from separate goroutines. Every job ends once,
// in the state and with the error of a cause that fired, nothing follows
// its terminal event, its handle and board row agree, and nothing of any
// owner is left in the admission queue.
func TestExactlyOnceTerminalState(t *testing.T) {
	phases := map[string]int{}
	outcomes := map[string]int{}
	for round := 0; round < 10; round++ {
		exactlyOnceRound(t, int64(2602+round), phases, outcomes)
	}
	t.Logf("jobs by phase at the fire time: %v", phases)
	t.Logf("jobs by outcome: %v", outcomes)
	for _, ph := range []string{"queued", "parked", "slot", "running"} {
		if phases[ph] == 0 {
			t.Errorf("no job was %s when the causes fired", ph)
		}
	}
}

// exactlyOnceRound is one environment of TestExactlyOnceTerminalState.
func exactlyOnceRound(t *testing.T, seed int64, phases, outcomes map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: seed},
		Pipeline: PipelineConfig{
			QueueDepth:        32,
			SchedulerWorkers:  2,
			MaxConcurrentRuns: 1,
			Quota:             QuotaConfig{MaxHostsPerOwner: 1},
		},
	})
	env.Console.Suspend()
	sub, _, _ := env.pipe.events.Subscribe(0, 4096, nil)
	defer sub.Close()

	type victim struct {
		job      *Job
		phase    string
		cancel   bool
		deadline bool
	}
	fireAt := time.Now().Add(200 * time.Millisecond)
	var victims []*victim
	submit := func(owner, phase string) *victim {
		t.Helper()
		v := &victim{phase: phase, cancel: rng.Intn(2) == 0, deadline: rng.Intn(2) == 0}
		var opts []SubmitOption
		if v.deadline {
			opts = append(opts, WithDeadline(fireAt.Add(time.Duration(rng.Intn(3))*time.Millisecond)))
		}
		job, err := env.Submit(context.Background(), spinJobGraph(phase, 1), append(opts, WithOwner(owner))...)
		if err != nil {
			t.Fatal(err)
		}
		v.job = job
		victims = append(victims, v)
		return v
	}
	until := func(v *victim, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(fireAt) {
				t.Fatalf("seed %d: job %s never reached its phase %s before the fire time (state %s)",
					seed, v.job.ID, v.phase, v.job.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
	running := submit("a", "running")
	until(running, func() bool { return running.job.State() == JobRunning })
	parked := submit("a", "parked")
	until(parked, func() bool { return parked.job.Status().QueuePosition == 0 && hasEvent(parked.job, "host-park") })
	for _, owner := range []string{"b", "c"} {
		v := submit(owner, "slot")
		until(v, func() bool { return v.job.Status().HostsHeld > 0 })
	}
	for i := 0; i < 3; i++ {
		v := submit(fmt.Sprint("q", i%2), "queued")
		until(v, func() bool { return v.job.Status().QueuePosition > 0 })
	}
	for _, v := range victims {
		phases[v.phase]++
	}

	closeFired, resumeFired := rng.Intn(2) == 0, rng.Intn(2) == 0
	start := make(chan struct{})
	var wg sync.WaitGroup
	fire := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f()
		}()
	}
	for _, v := range victims {
		if v.cancel {
			fire(v.job.Cancel)
		}
	}
	if closeFired {
		fire(env.Close)
	}
	if resumeFired {
		fire(env.Console.Resume)
	}
	time.Sleep(time.Until(fireAt))
	close(start)
	wg.Wait()
	if resumeFired && !closeFired {
		// Let the resumed console run what the other causes left.
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := env.Drain(drainCtx); err != nil {
			t.Fatal(err)
		}
	}
	env.Close() // ends whatever no fired cause did

	stream := map[string][]string{}
	for last, final := sub.Start(), env.pipe.events.Cursor(); last < final; {
		select {
		case ev, open := <-sub.C:
			if !open {
				t.Fatalf("seed %d: the subscriber was evicted at cursor %d of %d", seed, last, final)
			}
			stream[ev.Job.ID] = append(stream[ev.Job.ID], ev.Job.State)
			last = ev.Cursor
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d: the event stream stopped at cursor %d of %d", seed, last, final)
		}
	}
	for _, v := range victims {
		j := v.job
		select {
		case <-j.Done():
		default:
			t.Fatalf("seed %d: %s (%s) is %s after Close", seed, j.ID, v.phase, j.State())
		}
		state, err := j.State(), j.Err()
		var ok bool
		switch {
		case state == JobDone:
			ok = err == nil && resumeFired
		case state == JobCanceled:
			ok = err == ErrJobCanceled && v.cancel
		case state == JobFailed && errors.Is(err, ErrJobDeadlineExceeded):
			ok = v.deadline && causeFirst(err, ErrJobDeadlineExceeded)
		case state == JobFailed && errors.Is(err, ErrPipelineClosed):
			ok = causeFirst(err, ErrPipelineClosed)
		}
		if !ok {
			t.Fatalf("seed %d: %s (%s; cancel %v, deadline %v, resume %v) ended %s with %v, which no fired cause maps to",
				seed, j.ID, v.phase, v.cancel, v.deadline, resumeFired, state, err)
		}
		outcomes[fmt.Sprintf("%s %s", v.phase, state)]++

		events := j.Trace().Events
		if last := events[len(events)-1].Event; last != state.String() {
			t.Fatalf("seed %d: %s's trace ends with %q after its terminal event: %+v", seed, j.ID, last, events)
		}
		for _, ev := range events[:len(events)-1] {
			if ev.Event == services.JobStateDone || ev.Event == services.JobStateFailed || ev.Event == services.JobStateCanceled {
				t.Fatalf("seed %d: %s's trace has two terminal events: %+v", seed, j.ID, events)
			}
		}
		states := stream[j.ID]
		terminals := 0
		for _, s := range states {
			if s == services.JobStateDone || s == services.JobStateFailed || s == services.JobStateCanceled {
				terminals++
			}
		}
		if terminals != 1 || states[len(states)-1] != state.String() {
			t.Fatalf("seed %d: %s's stream %v: want one terminal event, last", seed, j.ID, states)
		}
		row, found := env.Board.Get(j.ID)
		if !found || !bytes.Equal(j.Status().AppendJSON(nil), row.AppendJSON(nil)) {
			t.Fatalf("seed %d: %s's handle and board row differ:\n%s\n%s", seed, j.ID,
				j.Status().AppendJSON(nil), row.AppendJSON(nil))
		}
	}
	for owner, u := range env.Board.OwnerUsages() {
		if u.Queued != 0 || u.InFlight != 0 || u.HostsHeld != 0 {
			t.Fatalf("seed %d: owner %s still uses %+v after Close", seed, owner, u)
		}
	}
	if n := env.pipe.admit.ownerCount(); n != 0 {
		t.Fatalf("seed %d: the admission queue holds %d owners after Close", seed, n)
	}
}

// hasEvent reports whether the job's trace holds the named event.
func hasEvent(j *Job, event string) bool {
	for _, ev := range j.Trace().Events {
		if ev.Event == event {
			return true
		}
	}
	return false
}

// causeFirst reports whether err is the cause itself or the cause
// followed by the engine's error — the two forms end writes.
func causeFirst(err, cause error) bool {
	return err == cause || strings.HasPrefix(err.Error(), cause.Error()+": ")
}
