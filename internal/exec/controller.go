package exec

import (
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
// execution environment, calls the task function, and requests
// rescheduling when the run's monitoring loop terminates an attempt
// (load threshold, machine failure). A verdict during the function hands
// the controller to a new goroutine; the old one is an orphan.
type appController struct {
	app  *appRun
	task *afg.Task
	spec *tasklib.Spec
	// place is the task's entry in the run's table. While the run is live
	// only this controller touches it: a reschedule patches it in place.
	place *core.Placement
	// watch is the machines of the placement being attempted, primary
	// first (watchBuf backs one); the monitoring loop reads it while the
	// controller is supervised, the controller writes it only while not.
	watch    []*testbed.Host
	watchBuf [1]*testbed.Host
	tr       TaskRun         // the attempt in progress
	locked   []*testbed.Host // its run slots, in taking order
	mem      int64           // the memory it claimed on its primary
	chased   []string        // hosts this task was terminated on
	tc       tasklib.Context // the task function's, until a take-over
	// sup, token and wake are guarded by app.mu. token counts take-overs:
	// an attempt that finds it moved when its function returns is an
	// orphan. A wait ends by one send on woken (made at the first wait),
	// after the loop writes its verdict: nil at wake.
	sup     supervision
	token   uint32
	wake    time.Time
	woken   chan struct{}
	verdict error
	// pending counts the fed ports yet to be delivered, plus Execute's.
	pending atomic.Int32
}

// supervision is what the monitoring loop watches a controller do.
type supervision uint8

const (
	unsupervised supervision = iota
	computing                // in the task function: a verdict takes over
	waiting                  // on woken, until wake
)

// errHandedOver ends an orphan: the controller went on elsewhere.
var errHandedOver = errors.New("exec: attempt handed over")

// main runs the controller from its inputs on.
func (ac *appController) main() { ac.finish(ac.run()) }

// resume takes the controller over from the attempt the monitoring loop
// ended with verdict while its function still ran, and carries it on.
func (ac *appController) resume(verdict error) {
	ac.endAttempt(verdict)
	ac.finish(ac.execute(verdict))
}

// finish sends the task's outputs on, or fails the application with its
// error, then runs the child its delivery hands on, and so on down the
// chain. An orphan ends here without a trace.
func (ac *appController) finish(outs []tasklib.Value, err error) {
	for err != errHandedOver {
		var next *appController
		if err == nil {
			next, err = ac.sendOutputs(outs)
		}
		if err != nil {
			ac.app.fail(fmt.Errorf("task %d (%s): %w", ac.task.ID, ac.task.Name, err))
		}
		ac.app.leave()
		if next == nil {
			return
		}
		ac = next
		outs, err = ac.run()
	}
}

// run receives the task's inputs, waits out their modeled transfer and
// the console gate, and executes the task.
func (ac *appController) run() ([]tasklib.Value, error) {
	in, arrived, err := ac.receiveInputs()
	if err == nil && time.Until(arrived) > 0 {
		err = ac.await(arrived)
	}
	// Console service: a suspended application dispatches no new tasks.
	// The task looks again at every check of the run's clock.
	for c := ac.app.engine.Console; err == nil && c != nil && c.Suspended(); {
		err = ac.await(time.Now().Add(ac.app.period))
	}
	if err != nil {
		return nil, err
	}
	ac.tc = tasklib.Context{In: in, Args: ac.task.Props.Args}
	return ac.execute(nil)
}

// execute runs the task from how its last attempt ended (nil before the
// first), moving it to a new host each time the Application Controller
// terminates one (load threshold, host failure, or a detector-confirmed
// death).
func (ac *appController) execute(ended error) ([]tasklib.Value, error) {
	for {
		if err := ac.reschedule(ended); err != nil {
			return nil, err
		}
		outs, err := ac.attempt()
		if err == nil || err == errHandedOver {
			return outs, err
		}
		ended = err
	}
}

// reschedule handles how the last attempt ended: nil (no attempt yet)
// needs nothing; an error that is no termination, or a termination with
// no attempt left, ends the task; otherwise, after the retry pause, it
// moves the task to a placement that avoids the machine that actually
// misbehaved and returns nil.
func (ac *appController) reschedule(err error) error {
	term, ok := err.(*terminationError) // verdicts come unwrapped
	if !ok {
		return err
	}
	e := ac.app.engine
	if e.Reschedule == nil {
		return fmt.Errorf("exec: task %d terminated on %s (%s) and no rescheduler configured",
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
	attempt := ac.tr.Attempt
	if attempt == ac.app.maxAttempts {
		// No attempt left to use a new placement: skip the wasted
		// scheduling pass (and its EventRescheduled — 'will re-run
		// there' would be a lie) and report exhaustion.
		return fmt.Errorf("exec: task %d exhausted %d attempts", ac.task.ID, ac.app.maxAttempts)
	}
	// Retry policy: jittered exponential backoff for this task plus
	// the engine-wide budget — a mass host failure must not turn into
	// an immediate retry storm against the scheduler. The pause is a
	// wait on the run's clock that watches no host.
	ac.watch = nil
	if err := ac.await(time.Now().Add(e.retryDelay(attempt, time.Now()))); err != nil {
		return err
	}
	ac.chased = append(ac.chased, term.host)
	ac.app.mu.Lock()
	ac.app.rescheduled++
	ac.app.mu.Unlock()
	np, err := e.Reschedule(ac.app.g, ac.task.ID, ac.chased)
	if err == nil {
		err = checkReplacement(np, ac.task.ID)
	}
	if err != nil {
		return fmt.Errorf("exec: reschedule task %d: %w", ac.task.ID, err)
	}
	// Reschedules replace the placement, not the scheduling round's
	// bookkeeping: TransferIn and Level stay.
	ac.place.Site, ac.place.Hosts, ac.place.Predicted = np.Site, np.Hosts, np.Predicted
	ac.app.emit(Event{Type: EventRescheduled, Task: ac.task.ID, TaskName: ac.task.Name,
		Host: np.Hosts[0], Hosts: append([]string(nil), np.Hosts...)})
	e.logger().Info("task rescheduled", "app", ac.app.appID,
		"task", ac.task.Name, "host", np.Hosts[0], "attempt", attempt)
	return nil
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

// await waits, under supervision, until at, holding no timer: the
// monitoring loop wakes it then, unless a verdict (a kill, or the end of
// the run's context) ends the wait first.
func (ac *appController) await(at time.Time) error {
	<-ac.supervise(at)
	return ac.verdict
}

// awaitSlot waits, under supervision, for h's run slot; only the run's
// end ends the wait, as it watches no host.
func (ac *appController) awaitSlot(h *testbed.Host) error {
	woken := ac.supervise(never)
	select {
	case h.RunSlot <- struct{}{}:
	case <-woken:
		return ac.verdict
	}
	r := ac.app
	r.mu.Lock()
	ended := ac.sup != waiting // the loop ended the wait as the slot came
	ac.sup = unsupervised
	r.mu.Unlock()
	if ended {
		<-woken
		if ac.verdict != nil {
			<-h.RunSlot
			return ac.verdict
		}
	}
	return nil
}

// never is a wake-up no wait reaches.
var never = time.Unix(1<<62, 0)

// supervise registers a wait until at with the monitoring loop and
// returns the channel that ends it: after the loop writes its verdict
// (nil at wake), it sends once. The channel is made at the first wait.
func (ac *appController) supervise(at time.Time) chan struct{} {
	r := ac.app
	if ac.woken == nil {
		ac.woken = make(chan struct{}, 1)
	}
	r.mu.Lock()
	ac.sup, ac.wake = waiting, at
	r.mu.Unlock()
	r.nudge()
	return ac.woken
}

// attempt performs one execution on the current placement, supervised by
// the run's monitoring loop. The task function runs on the caller's
// goroutine; if the loop hands the controller over meanwhile, attempt
// returns errHandedOver and the caller holds nothing of it any more.
func (ac *appController) attempt() ([]tasklib.Value, error) {
	r, e := ac.app, ac.app.engine
	// The monitoring loop supervises every machine of the placement: a
	// parallel task dies with any of its nodes, not just the primary. It
	// watches them once their run slots are taken.
	hosts := ac.watchBuf[:0]
	for _, name := range ac.place.Hosts {
		h, err := e.TB.Host(name)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	locked, err := ac.lockHosts(hosts)
	if err != nil {
		return nil, err
	}
	ac.locked, ac.watch = locked, hosts
	primary := hosts[0]
	ac.tr = TaskRun{Task: ac.task.ID, TaskName: ac.task.Name,
		Host: primary.Name, Attempt: ac.tr.Attempt + 1, Start: time.Now()}

	// Set up the execution environment: reserve the task's memory (the
	// catalog spec's requirement). A memory-starved host still runs the
	// task — the prediction penalty models the resulting thrashing.
	ac.mem = 0
	if mem := ac.spec.Params.RequiredMemBytes; mem > 0 && primary.ClaimMem(mem) == nil {
		ac.mem = mem
	}

	tc := &ac.tc
	if ac.token != 0 { // the orphan may still read ac.tc
		tc = &tasklib.Context{In: ac.tc.In, Args: ac.tc.Args}
	}
	tc.Nodes = len(ac.place.Hosts)
	if ac.task.Props.Mode != afg.Parallel {
		tc.Nodes = 1
	}
	r.mu.Lock()
	token := ac.token
	ac.sup = computing
	r.mu.Unlock()
	t0 := time.Now()
	outs, err := ac.spec.Fn(tc)
	elapsed := time.Since(t0)
	r.mu.Lock()
	if ac.token != token {
		r.mu.Unlock()
		return nil, errHandedOver
	}
	ac.sup = unsupervised
	r.mu.Unlock()

	// Dilation: stretch the observed runtime by the host model's factor
	// to emulate slower/loaded hardware. The wait remains supervised so
	// threshold kills still happen during the stretched window.
	if err == nil && e.DilationScale > 0 {
		if extra := time.Duration(float64(elapsed) * (primary.Dilation() - 1) * e.DilationScale); extra > 0 {
			err = ac.await(time.Now().Add(extra))
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
		if err == nil && (!h.Reachable() || e.confirmedDead(h.Name)) {
			err = &terminationError{host: h.Name, reason: "host unreachable at delivery"}
		}
	}
	if err != nil {
		ac.endAttempt(err)
		return nil, err
	}
	ac.tr.Elapsed = elapsed
	ac.endAttempt(nil)
	for _, h := range ac.place.Hosts {
		e.Health.RecordOutcome(h, true)
	}
	return outs, nil
}

// endAttempt releases what the attempt held and logs it as ended by err:
// a successful run is also a measurement for the run's write-back.
func (ac *appController) endAttempt(err error) {
	ac.tr.End = time.Now()
	_, ac.tr.Terminated = err.(*terminationError)
	if ac.mem > 0 {
		ac.watch[0].ReleaseMem(ac.mem)
	}
	unlockHosts(ac.locked)
	ac.app.recordRun(ac.tr, err == nil)
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
