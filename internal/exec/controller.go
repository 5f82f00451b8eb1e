package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// appController is the Application Controller for one task on its
// assigned machine: started by its inputs' delivery, it sets up the
// execution environment and requests rescheduling when the run's
// monitoring loop terminates an attempt (load threshold, machine failure).
type appController struct {
	app  *appRun
	task *afg.Task
	spec *tasklib.Spec
	// place is the task's entry in the run's table. While the run is live
	// only this controller touches it: a reschedule patches it in place.
	place *core.Placement
	// watch is the machines of the placement being attempted, primary
	// first, whose run locks the attempt holds; watchBuf backs it for the
	// usual single host. The controller writes it only while out is nil,
	// the monitoring loop reads it only while out is not.
	watch    []*testbed.Host
	watchBuf [1]*testbed.Host
	// out is the outcome channel of the attempt or wait under the
	// monitoring loop's supervision, nil between attempts and once the
	// loop has sent on it; a wait ends at wake. Guarded by app.mu.
	out  chan outcome
	wake time.Time
	// pending counts the fed ports yet to be delivered, plus Execute's.
	pending atomic.Int32
}

// outcome is what ends an attempt's wait: the task function's result, or
// the monitoring loop's verdict as a *terminationError in err.
type outcome struct {
	outs    []tasklib.Value
	elapsed time.Duration
	err     error
}

// main runs the controller, then each child its delivery hands on: a
// permanent failure aborts the application.
func (ac *appController) main(ctx context.Context) {
	for ac != nil {
		next, err := ac.run(ctx)
		if err != nil {
			ac.app.fail(fmt.Errorf("task %d (%s): %w", ac.task.ID, ac.task.Name, err))
		}
		ac.app.leave()
		ac = next
	}
}

// run executes the controller's lifecycle and returns a child to run next.
func (ac *appController) run(ctx context.Context) (*appController, error) {
	in, arrived, err := ac.receiveInputs()
	if err != nil {
		return nil, err
	}
	// The modeled transfer, on the channel the first attempt reuses.
	var out chan outcome
	if time.Until(arrived) > 0 {
		out = make(chan outcome, 2)
		ac.supervise(out)
		if err := ac.await(ctx, out, arrived); err != nil {
			return nil, err
		}
	}

	// Console service: a suspended application dispatches no new tasks.
	if c := ac.app.engine.Console; c != nil {
		if err := c.Gate(ctx); err != nil {
			return nil, err
		}
	}

	outs, err := ac.executeWithRescheduling(ctx, in, out)
	if err != nil {
		return nil, err
	}
	if len(outs) != ac.task.OutPorts {
		return nil, fmt.Errorf("exec: produced %d outputs, declared %d", len(outs), ac.task.OutPorts)
	}
	ac.app.mu.Lock()
	ac.app.outputs[ac.task.ID] = outs
	ac.app.mu.Unlock()
	return ac.sendOutputs(ctx, outs)
}

// executeWithRescheduling runs the task, moving it to a new host when
// the Application Controller terminates it (load threshold, host
// failure, or a detector-confirmed death). The first attempt reports on
// out if it is not nil.
func (ac *appController) executeWithRescheduling(ctx context.Context, in []tasklib.Value, out chan outcome) ([]tasklib.Value, error) {
	e := ac.app.engine
	var chased []string // hosts this task was terminated on
	for attempt := 1; attempt <= ac.app.maxAttempts; attempt++ {
		// The monitoring loop supervises every machine of the placement: a
		// parallel task dies with any of its nodes, not just the primary.
		ac.watch = ac.watchBuf[:0]
		for _, name := range ac.place.Hosts {
			h, err := e.TB.Host(name)
			if err != nil {
				return nil, err
			}
			ac.watch = append(ac.watch, h)
		}
		outs, tr, err := ac.attempt(ctx, in, attempt, out)
		out = nil
		ac.app.recordRun(tr, err == nil)
		if err == nil {
			for _, h := range ac.place.Hosts {
				e.Health.RecordOutcome(h, true)
			}
			return outs, nil
		}
		var term *terminationError
		if !errors.As(err, &term) {
			return nil, err
		}
		// Task rescheduling request: ask for a new placement that avoids
		// the machine that actually misbehaved.
		if e.Reschedule == nil {
			return nil, fmt.Errorf("exec: task %d terminated on %s (%s) and no rescheduler configured",
				ac.task.ID, term.host, term.reason)
		}
		if term.overload() {
			ac.app.emit(Event{Type: EventOverload, Task: ac.task.ID, TaskName: ac.task.Name,
				Host: term.host, Reason: term.reason})
		} else {
			ac.app.recordFailedHost(term.host)
			e.Health.RecordOutcome(term.host, false)
			ac.app.emit(Event{Type: EventHostFailure, Task: ac.task.ID, TaskName: ac.task.Name,
				Host: term.host, Reason: term.reason})
			e.logger().Warn("host failure", "app", ac.app.appID,
				"task", ac.task.Name, "host", term.host, "reason", term.reason)
		}
		if attempt == ac.app.maxAttempts {
			// No attempt left to use a new placement: skip the wasted
			// scheduling pass (and its EventRescheduled — 'will re-run
			// there' would be a lie) and report exhaustion.
			break
		}
		// Retry policy: jittered exponential backoff for this task plus
		// the engine-wide budget — a mass host failure must not turn into
		// an immediate retry storm against the scheduler.
		if rerr := e.retryPause(ctx, attempt); rerr != nil {
			return nil, rerr
		}
		chased = append(chased, term.host)
		ac.app.mu.Lock()
		ac.app.rescheduled++
		ac.app.mu.Unlock()
		np, rerr := e.Reschedule(ac.app.g, ac.task.ID, chased)
		if rerr == nil {
			rerr = checkReplacement(np, ac.task.ID)
		}
		if rerr != nil {
			return nil, fmt.Errorf("exec: reschedule task %d: %w", ac.task.ID, rerr)
		}
		// Reschedules replace the placement, not the scheduling round's
		// bookkeeping: TransferIn and Level stay.
		ac.place.Site, ac.place.Hosts, ac.place.Predicted = np.Site, np.Hosts, np.Predicted
		ac.app.emit(Event{Type: EventRescheduled, Task: ac.task.ID, TaskName: ac.task.Name,
			Host: np.Hosts[0], Hosts: append([]string(nil), np.Hosts...)})
		e.logger().Info("task rescheduled", "app", ac.app.appID,
			"task", ac.task.Name, "host", np.Hosts[0], "attempt", attempt)
	}
	return nil, fmt.Errorf("exec: task %d exhausted %d attempts", ac.task.ID, ac.app.maxAttempts)
}

// checkReplacement vets a Reschedule hook's answer before it becomes
// the task's placement.
func checkReplacement(np *core.Placement, id afg.TaskID) error {
	switch {
	case np == nil:
		return errors.New("no placement returned")
	case np.Task != id:
		return fmt.Errorf("placement is for task %d", np.Task)
	case len(np.Hosts) == 0:
		return errors.New("placement has no hosts")
	}
	if h := np.DuplicateHost(); h != "" {
		return fmt.Errorf("placement lists host %s twice", h)
	}
	return nil
}

// supervise puts the attempt or wait on out under the run's monitoring
// loop, or with nil takes the controller out from under it.
func (ac *appController) supervise(out chan outcome) {
	ac.app.mu.Lock()
	ac.out, ac.wake = out, time.Time{}
	ac.app.mu.Unlock()
}

// await waits on out, under supervision, until at, holding no timer: the
// monitoring loop sends outcome{} then, unless it sends a kill first.
func (ac *appController) await(ctx context.Context, out chan outcome, at time.Time) error {
	r := ac.app
	r.mu.Lock()
	if ac.out == out { // else the verdict is already on out
		ac.wake = at
	}
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default: // a kick is pending already
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case oc := <-out:
		return oc.err
	}
}

// compute runs the task function and reports on out.
func (ac *appController) compute(in []tasklib.Value, nodes int, out chan<- outcome) {
	t0 := time.Now()
	outs, err := ac.spec.Fn(&tasklib.Context{In: in, Args: ac.task.Props.Args, Nodes: nodes})
	out <- outcome{outs: outs, elapsed: time.Since(t0), err: err}
}

// attempt performs one execution on the current placement, supervised by
// the run's monitoring loop, reporting on out if it is not nil.
func (ac *appController) attempt(ctx context.Context, in []tasklib.Value, attemptNo int, out chan outcome) (outs []tasklib.Value, tr TaskRun, err error) {
	e := ac.app.engine
	primary := ac.watch[0]
	defer unlockHosts(lockHosts(ac.watch))
	tr = TaskRun{Task: ac.task.ID, TaskName: ac.task.Name,
		Host: primary.Name, Attempt: attemptNo, Start: time.Now()}
	defer func() {
		tr.End = time.Now()
		_, tr.Terminated = err.(*terminationError)
	}()

	// Set up the execution environment: reserve the task's memory (the
	// catalog spec's requirement). A memory-starved host still runs the
	// task — the prediction penalty models the resulting thrashing.
	if mem := ac.spec.Params.RequiredMemBytes; mem > 0 && primary.ClaimMem(mem) == nil {
		defer primary.ReleaseMem(mem)
	}

	nodes := len(ac.place.Hosts)
	if ac.task.Props.Mode != afg.Parallel {
		nodes = 1
	}

	// Capacity 2: the task function's result and the monitoring loop's
	// one message, so neither sender blocks on an attempt that moved on.
	if out == nil {
		out = make(chan outcome, 2)
	}
	ac.supervise(out)
	defer ac.supervise(nil)
	go ac.compute(in, nodes, out)
	var oc outcome
	select {
	case <-ctx.Done():
		return nil, tr, ctx.Err()
	case oc = <-out:
	}
	if oc.err != nil {
		return nil, tr, oc.err
	}

	// Dilation: stretch the observed runtime by the host model's factor
	// to emulate slower/loaded hardware. The wait remains supervised so
	// threshold kills still happen during the stretched window.
	elapsed := oc.elapsed
	if e.DilationScale > 0 {
		extra := time.Duration(float64(oc.elapsed) * (primary.Dilation() - 1) * e.DilationScale)
		if extra > 0 {
			if err := ac.await(ctx, out, time.Now().Add(extra)); err != nil {
				return nil, tr, err
			}
			elapsed += extra
		}
	}

	// Results must leave the machines: however far the local computation
	// got, a host that crashed, was confirmed dead, or is partitioned at
	// delivery time cannot hand its outputs to anyone. Without this
	// check a short task could "finish" on a partitioned host before the
	// detector confirms the silence — delivering data the network model
	// says never arrived. (A load spike, by contrast, does not invalidate
	// completed work, so the threshold is deliberately not re-checked.)
	for _, h := range ac.watch {
		if !h.Reachable() || e.confirmedDead(h.Name) {
			return nil, tr, &terminationError{host: h.Name, reason: "host unreachable at delivery"}
		}
	}
	tr.Elapsed = elapsed
	return oc.outs, tr, nil
}

// shouldTerminate implements the paper's rule: "If the current load on
// any of these machines is more than a predefined threshold value, the
// Application Controller terminates the task execution ... and sends a
// task rescheduling request". Host failure is treated the same way, in
// two flavors: a crash the local controller sees directly (Failed), and
// a detector-confirmed death (Engine.Health) — the only signal available
// when the machine is partitioned but still computing. It returns nil
// or the *terminationError naming the offending machine.
func (ac *appController) shouldTerminate() error {
	e := ac.app.engine
	thr := e.LoadThreshold
	for _, h := range ac.watch {
		if h.Failed() {
			return &terminationError{host: h.Name, reason: "host failed"}
		}
		if e.confirmedDead(h.Name) {
			return &terminationError{host: h.Name, reason: "host confirmed dead"}
		}
		if thr > 0 && h.CurrentLoad() > thr {
			return &terminationError{host: h.Name, reason: "load threshold exceeded"}
		}
	}
	return nil
}

// overload reports whether the kill was a load-threshold trip rather
// than a failure: overloaded hosts are avoided, not reported failed.
func (t *terminationError) overload() bool {
	return t.reason == "load threshold exceeded"
}
