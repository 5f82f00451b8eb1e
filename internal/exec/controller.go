package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// appController is the Application Controller for one task on its
// assigned machine: it sets up the execution environment, waits for the
// startup signal, monitors the execution, and requests rescheduling when
// the current load exceeds the threshold or the machine fails.
type appController struct {
	app  *appRun
	task *afg.Task
	spec *tasklib.Spec
}

func newAppController(run *appRun, task *afg.Task) (*appController, error) {
	spec, err := run.engine.Reg.Get(task.Name)
	if err != nil {
		return nil, err
	}
	return &appController{app: run, task: task, spec: spec}, nil
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
	ac.app.storeOutputs(ac.task.ID, outs)
	return ac.sendOutputs(outs)
}

// executeWithRescheduling runs the task, moving it to a new host when
// the Application Controller terminates it (load threshold, host
// failure, or a detector-confirmed death).
func (ac *appController) executeWithRescheduling(ctx context.Context, in []tasklib.Value) ([]tasklib.Value, error) {
	e := ac.app.engine
	excluded := make(map[string]bool)
	for attempt := 1; attempt <= ac.app.maxAttempts; attempt++ {
		placement := ac.app.placement(ac.task.ID)
		if placement == nil {
			return nil, fmt.Errorf("exec: task %d has no placement", ac.task.ID)
		}
		primary, err := e.TB.Host(placement.Hosts[0])
		if err != nil {
			return nil, err
		}
		outs, tr, err := ac.attempt(ctx, in, placement, primary, attempt)
		ac.app.recordRun(tr, err == nil)
		if err == nil {
			if e.Breakers != nil {
				for _, h := range placement.Hosts {
					e.Breakers.ReportSuccess(h)
				}
			}
			if e.Metrics != nil {
				e.Metrics.Add("task:"+ac.task.Name, tr.End.Sub(tr.Start), tr.Elapsed.Seconds())
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
		excluded[term.host] = true
		ac.app.mu.Lock()
		ac.app.rescheduled++
		ac.app.mu.Unlock()
		// The exclusion list carries every host this task was chased off
		// plus every host the detector currently holds confirmed dead —
		// the repository usually agrees already (the detector published
		// the down status), but a death confirmed microseconds ago must
		// not win the placement because the round's snapshot predates it.
		// Open circuit breakers ride along: a flapping host the detector
		// cannot confirm dead is quarantined from replacements too.
		exclude := make([]string, 0, len(excluded))
		for h := range excluded {
			exclude = append(exclude, h)
		}
		sort.Strings(exclude)
		exclude = append(exclude, e.deadHostsExcept(excluded)...)
		exclude = append(exclude, e.breakerExcluded(excluded)...)
		np, rerr := e.Reschedule(ac.app.g, ac.task.ID, exclude)
		if rerr != nil {
			return nil, fmt.Errorf("exec: reschedule task %d: %w", ac.task.ID, rerr)
		}
		ac.app.setPlacement(ac.task.ID, np)
		ac.app.emit(Event{Type: EventRescheduled, Task: ac.task.ID, TaskName: ac.task.Name,
			Host: np.Hosts[0], Hosts: append([]string(nil), np.Hosts...)})
		e.logger().Info("task rescheduled", "app", ac.app.appID,
			"task", ac.task.Name, "host", np.Hosts[0], "attempt", attempt)
	}
	return nil, fmt.Errorf("exec: task %d exhausted %d attempts", ac.task.ID, ac.app.maxAttempts)
}

// attempt performs one execution on the current placement, supervised by
// the load/failure watchdog.
func (ac *appController) attempt(ctx context.Context, in []tasklib.Value, placement *core.Placement, primary *testbed.Host, attemptNo int) ([]tasklib.Value, TaskRun, error) {
	e := ac.app.engine
	// The watchdog supervises every machine of the placement: a parallel
	// task dies with any of its nodes, not just the primary.
	watch := make([]*testbed.Host, 0, len(placement.Hosts))
	for _, name := range placement.Hosts {
		h, err := e.TB.Host(name)
		if err != nil {
			return nil, TaskRun{Task: ac.task.ID, TaskName: ac.task.Name, Host: primary.Name,
				Attempt: attemptNo, Start: time.Now(), End: time.Now()}, err
		}
		watch = append(watch, h)
	}
	// One task per machine at a time — engine-wide, so tasks of
	// different applications serialize on shared hosts.
	unlock := e.lockHosts(placement.Hosts)
	defer unlock()
	tr := TaskRun{
		Task: ac.task.ID, TaskName: ac.task.Name,
		Host: primary.Name, Attempt: attemptNo, Start: time.Now(),
	}

	// Set up the execution environment: reserve the task's memory.
	params, perr := paramsFor(ac, primary)
	if perr == nil && params > 0 {
		if err := primary.ClaimMem(params); err == nil {
			defer primary.ReleaseMem(params)
		}
		// A memory-starved host still runs the task — the prediction
		// penalty models the resulting thrashing.
	}

	nodes := len(placement.Hosts)
	if ac.task.Props.Mode != afg.Parallel {
		nodes = 1
	}

	type outcome struct {
		outs    []tasklib.Value
		elapsed time.Duration
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		t0 := time.Now()
		outs, err := ac.spec.Fn(&tasklib.Context{In: in, Args: ac.task.Props.Args, Nodes: nodes})
		done <- outcome{outs: outs, elapsed: time.Since(t0), err: err}
	}()

	// The watchdog is the Application Controller's monitoring loop.
	tick := time.NewTicker(ac.app.checkPeriod)
	defer tick.Stop()
	var oc outcome
compute:
	for {
		select {
		case <-ctx.Done():
			tr.End = time.Now()
			return nil, tr, ctx.Err()
		case oc = <-done:
			break compute
		case <-tick.C:
			if term := ac.shouldTerminate(watch); term != nil {
				tr.End = time.Now()
				tr.Terminated = true
				return nil, tr, term
			}
		}
	}
	if oc.err != nil {
		tr.End = time.Now()
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
		dilate:
			for {
				select {
				case <-ctx.Done():
					tr.End = time.Now()
					return nil, tr, ctx.Err()
				case <-timer.C:
					break dilate
				case <-tick.C:
					if term := ac.shouldTerminate(watch); term != nil {
						tr.End = time.Now()
						tr.Terminated = true
						return nil, tr, term
					}
				}
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
	for _, h := range watch {
		if !h.Reachable() || e.hostDead(h.Name) {
			tr.End = time.Now()
			tr.Terminated = true
			return nil, tr, &terminationError{host: h.Name, reason: "host unreachable at delivery"}
		}
	}

	tr.End = time.Now()
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
func (ac *appController) shouldTerminate(watch []*testbed.Host) *terminationError {
	e := ac.app.engine
	thr := e.LoadThreshold
	for _, h := range watch {
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

// paramsFor returns the task's required memory on the host.
func paramsFor(ac *appController, h *testbed.Host) (int64, error) {
	// Memory requirements come from the catalog spec; the repository copy
	// would be equivalent.
	return ac.spec.Params.RequiredMemBytes, nil
}
