package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// appController is the Application Controller for one task on its
// assigned machine: it sets up the execution environment, waits for the
// startup signal, and requests rescheduling when the run's monitoring
// loop terminates an attempt (load threshold, machine failure).
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
	// out is the outcome channel of the attempt under the monitoring
	// loop's supervision, nil between attempts and once the verdict is
	// delivered. Guarded by app.mu.
	out chan outcome
}

// outcome is what ends an attempt's wait: the task function's result, or
// the monitoring loop's verdict as a *terminationError in err.
type outcome struct {
	outs    []tasklib.Value
	elapsed time.Duration
	err     error
}

// main runs the controller: a permanent failure aborts the application,
// and the last controller out ends its monitoring loop.
func (ac *appController) main(ctx context.Context) {
	if err := ac.run(ctx); err != nil {
		ac.app.fail(fmt.Errorf("task %d (%s): %w", ac.task.ID, ac.task.Name, err))
	}
	if ac.app.left.Add(-1) == 0 {
		close(ac.app.done)
	}
}

// run executes the controller's lifecycle to completion.
func (ac *appController) run(ctx context.Context) error {
	e := ac.app.engine

	// Console service: a suspended application dispatches no new tasks.
	if e.Console != nil {
		if err := e.Console.Gate(ctx); err != nil {
			return err
		}
	}

	// Receive dataflow inputs (blocks until parents deliver).
	in, err := ac.receiveInputs(ctx)
	if err != nil {
		return err
	}
	if e.Console != nil { // re-check after possibly long waits
		if err := e.Console.Gate(ctx); err != nil {
			return err
		}
	}

	outs, err := ac.executeWithRescheduling(ctx, in)
	if err != nil {
		return err
	}
	if len(outs) != ac.task.OutPorts {
		return fmt.Errorf("exec: produced %d outputs, declared %d", len(outs), ac.task.OutPorts)
	}
	ac.app.mu.Lock()
	ac.app.outputs[ac.task.ID] = outs
	ac.app.mu.Unlock()
	return ac.sendOutputs(outs)
}

// executeWithRescheduling runs the task, moving it to a new host when
// the Application Controller terminates it (load threshold, host
// failure, or a detector-confirmed death).
func (ac *appController) executeWithRescheduling(ctx context.Context, in []tasklib.Value) ([]tasklib.Value, error) {
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
		outs, tr, err := ac.attempt(ctx, in, attempt)
		ac.app.recordRun(tr, err == nil)
		if err == nil {
			if e.Breakers != nil {
				for _, h := range ac.place.Hosts {
					e.Breakers.ReportSuccess(h)
				}
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
			if e.Breakers != nil {
				e.Breakers.ReportFailure(term.host)
			}
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
		np, rerr := e.Reschedule(ac.app.g, ac.task.ID, e.exclusions(chased))
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

// checkReplacement vets a Reschedule answer — a hook's or a wire peer's
// — before it becomes the task's placement.
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

// supervise puts the attempt waiting on out under the run's monitoring
// loop, or with nil takes the controller out from under it.
func (ac *appController) supervise(out chan outcome) {
	ac.app.mu.Lock()
	ac.out = out
	ac.app.mu.Unlock()
}

// compute runs the task function and reports on out.
func (ac *appController) compute(in []tasklib.Value, nodes int, out chan<- outcome) {
	t0 := time.Now()
	outs, err := ac.spec.Fn(&tasklib.Context{In: in, Args: ac.task.Props.Args, Nodes: nodes})
	out <- outcome{outs: outs, elapsed: time.Since(t0), err: err}
}

// attempt performs one execution on the current placement, supervised by
// the run's monitoring loop.
func (ac *appController) attempt(ctx context.Context, in []tasklib.Value, attemptNo int) (outs []tasklib.Value, tr TaskRun, err error) {
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
	// one verdict, so neither sender blocks on an attempt that moved on.
	out := make(chan outcome, 2)
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
	// to emulate slower/loaded hardware. The sleep remains supervised so
	// threshold kills still happen during the stretched window.
	elapsed := oc.elapsed
	if e.DilationScale > 0 {
		extra := time.Duration(float64(oc.elapsed) * (primary.Dilation() - 1) * e.DilationScale)
		if extra > 0 {
			timer := time.NewTimer(extra)
			defer timer.Stop()
			select {
			case <-ctx.Done():
				return nil, tr, ctx.Err()
			case verdict := <-out: // the result is read: only a kill can follow
				return nil, tr, verdict.err
			case <-timer.C:
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
		if !h.Reachable() || e.hostDead(h.Name) {
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
// a detector-confirmed death (MarkHostDead) — the only signal available
// when the machine is partitioned but still computing. It returns nil
// or the termination naming the offending machine.
func (ac *appController) shouldTerminate() *terminationError {
	e := ac.app.engine
	thr := e.LoadThreshold
	for _, h := range ac.watch {
		if h.Failed() {
			return &terminationError{host: h.Name, reason: "host failed"}
		}
		if e.hostDead(h.Name) {
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
