// Package exec implements the VDCE Runtime System's execution path: the
// Application Controller, which sets up the execution environment on
// each assigned machine, monitors the run, and requests rescheduling
// when a machine's load crosses the threshold; and the Data Manager, the
// paper's socket-based point-to-point communication system for
// inter-task data, here each run's own input slots.
//
// The lifecycle follows §4. Channel set-up for a run is laying out its
// input slots, one per in-edge, indexed by (task, port); when all are
// laid out (the acknowledgment) the execution startup signal starts the
// tasks no edge feeds. A task function runs on its controller's
// goroutine, watched by the run's one monitoring loop on the goroutine
// that called Execute, whose verdict hands the controller to a new
// goroutine and leaves the function an orphan. Each output port is
// encoded into one checksummed frame, which its producer hands by call
// to the slot of every edge fanning out from the port, where it is
// checked and decoded into the consumer's own copy. The delivery that
// fills a task's last slot starts it, next on the producer's goroutine
// or beside it; with DilationScale it first waits out the network
// model's transfer time on the loop's clock. When the run ends its
// completed executions are reported together so the Site Manager can
// update the task-performance database. A graph without edges has no
// Data Manager.
package exec

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// Engine executes scheduled applications on the simulated testbed with
// real task code and framed, checksummed data channels.
type Engine struct {
	// Reg resolves task names to implementations.
	Reg *tasklib.Registry
	// TB supplies the host models (dilation, load, failure, memory).
	TB *testbed.Testbed
	// Record receives a run's measurements — one ExecutionRecord per
	// successful task run, in completion order — in one call when the
	// run ends, before Execute returns: on success, failure and cancel
	// alike, and not at all when no task succeeded. Optional.
	Record func([]repository.Execution)
	// LoadThreshold is the Application Controller's termination trigger:
	// if the primary host's load exceeds it mid-run, the task is killed
	// and rescheduled. <= 0 disables the check.
	LoadThreshold float64
	// LoadCheckPeriod is each run's monitoring cadence (default 5ms).
	LoadCheckPeriod time.Duration
	// DilationScale stretches task runtimes by the host model's dilation
	// factor to emulate heterogeneous hardware: extra wait =
	// elapsed * (dilation-1) * DilationScale, and an input's modeled
	// transfer time alike (receiveInputs). The run's monitoring loop ends
	// both waits on its one timer. 0 disables both.
	DilationScale float64
	// Reschedule supplies a replacement placement when a task must move
	// (load threshold or host failure), excluding the hosts the task was
	// chased off; a host the repository does not list up — confirmed
	// dead, quarantined — is not a candidate anyway. Nil makes such
	// events fatal.
	Reschedule func(g *afg.Graph, id afg.TaskID, exclude []string) (*core.Placement, error)
	// MaxAttempts bounds per-task executions (default 3).
	MaxAttempts int
	// Retry shapes rescheduling retries: per-attempt jittered backoff
	// plus the engine-wide token-bucket retry budget. The zero value
	// backs off from DefaultRetryBaseDelay with an unlimited budget.
	Retry RetryConfig
	// Health is the failure detector, and it is required (a detector
	// with no sites registered watches nothing and ignores outcomes for
	// hosts it does not know): every attempt's outcome is recorded there
	// (a completed run a success, a watchdog host failure a failure —
	// quarantine's evidence), and the monitoring loops ask it every check
	// period whether a watched host is confirmed dead, so a death
	// interrupts every task on the host even when the host model itself
	// looks alive (a network partition: the machine computes on, but its
	// results are unreachable).
	Health *detect.Detector
	// Console gates task dispatch (suspend/resume). Optional.
	Console *services.Console
	// Log receives structured recovery events (host failures, task
	// reschedules) correlated by app ID. Optional; nil discards.
	Log *slog.Logger

	// retryOnce/retry materialize Retry into the shared gate.
	retryOnce sync.Once
	retry     *retryGate

	closed   atomic.Bool // set by Close
	transfer transferTallies
	// clocks holds stopped monitoring-loop timers: a run takes one and
	// puts it back stopped, so the timers outlive the runs.
	clocks sync.Pool

	// appSeq numbers the runs: it disambiguates app IDs of same-named
	// graphs submitted within the same nanosecond.
	appSeq atomic.Uint64
	// inFlight/peakInFlight gauge how many applications execute
	// simultaneously.
	inFlight     atomic.Int32
	peakInFlight atomic.Int32
}

// lockHosts takes the run slot of every machine of a placement: a host
// runs one task at a time — across every application and every engine
// placing work on it — exactly as the schedule simulator assumes. Slots
// are taken in host-name order so multi-host (parallel) tasks cannot
// deadlock against each other, and no placement names a host twice
// (Validate, checkReplacement). A slot that is free is taken at once; a
// wait for one is supervised, so the run's end ends it (and frees the
// slots taken). It returns the hosts in taking order for unlockHosts;
// hosts itself is not reordered.
func (ac *appController) lockHosts(hosts []*testbed.Host) ([]*testbed.Host, error) {
	if len(hosts) > 1 {
		hosts = slices.Clone(hosts)
		slices.SortFunc(hosts, func(a, b *testbed.Host) int { return strings.Compare(a.Name, b.Name) })
	}
	for i, h := range hosts {
		select {
		case h.RunSlot <- struct{}{}:
		default:
			if err := ac.awaitSlot(h); err != nil {
				unlockHosts(hosts[:i])
				return nil, err
			}
		}
	}
	return hosts, nil
}

func unlockHosts(hosts []*testbed.Host) {
	for i := len(hosts) - 1; i >= 0; i-- {
		<-hosts[i].RunSlot
	}
}

// PeakConcurrency reports the maximum number of applications the engine
// has had executing at the same time since it was created.
func (e *Engine) PeakConcurrency() int {
	return int(e.peakInFlight.Load())
}

// InFlight reports how many applications are executing right now.
func (e *Engine) InFlight() int {
	return int(e.inFlight.Load())
}

// discardLog backs logger() so recovery-path call sites never branch.
var discardLog = slog.New(slog.DiscardHandler)

// logger returns the engine's structured logger, or a discarding one.
func (e *Engine) logger() *slog.Logger {
	if e.Log != nil {
		return e.Log
	}
	return discardLog
}

// confirmedDead reports whether the failure detector holds the host
// confirmed dead.
func (e *Engine) confirmedDead(host string) bool {
	st, _ := e.Health.State(host)
	return st == detect.Dead
}

// EventType tags an execution progress event.
type EventType int

const (
	// EventHostFailure: a watchdog killed an attempt because its host
	// failed or was confirmed dead by the failure detector.
	EventHostFailure EventType = iota
	// EventOverload: a watchdog killed an attempt because the host's
	// load crossed the threshold.
	EventOverload
	// EventRescheduled: the task received a replacement placement and
	// will re-run there.
	EventRescheduled
)

// Event is one execution progress notification, streamed to the sink
// installed with WithEventSink as recovery happens mid-run.
type Event struct {
	Type     EventType
	Task     afg.TaskID
	TaskName string
	// Host is the offending host for failures/overloads and the new
	// primary host for reschedules.
	Host string
	// Hosts is the full replacement placement for reschedules (the
	// primary plus any parallel nodes); nil for other event types.
	Hosts []string
	// Reason is the watchdog's termination reason (failures/overloads).
	Reason string
}

// ExecOption configures one Execute call.
type ExecOption func(*execOpts)

type execOpts struct {
	sink func(Event)
}

// WithEventSink streams per-task recovery events (host losses,
// overload kills, reschedules) to fn as they happen, so callers can
// observe recovery while the run is still in flight. fn must be safe
// for concurrent use; it is called from the task controllers.
func WithEventSink(fn func(Event)) ExecOption {
	return func(o *execOpts) { o.sink = fn }
}

// TaskRun describes one attempt at executing a task.
type TaskRun struct {
	Task       afg.TaskID
	TaskName   string
	Host       string
	Attempt    int
	Start, End time.Time
	Elapsed    time.Duration
	Terminated bool // killed by the load threshold or a host failure
}

// Result is the outcome of Execute.
type Result struct {
	AppID   string
	Outputs map[afg.TaskID][]tasklib.Value
	// OutputsEvicted marks a result whose Outputs were dropped by the
	// owner that retained it (the submission pipeline bounds retained
	// outputs in bytes); every other field is as the run left it.
	OutputsEvicted bool
	Runs           []TaskRun
	Makespan       time.Duration
	// Rescheduled counts reschedule requests the Application Controllers
	// issued.
	Rescheduled int
	// FailedHosts lists the distinct hosts whose failure (crash or
	// detector confirmation — not overload) forced a task off them, in
	// first-observed order.
	FailedHosts []string
	// Table is the allocation table as actually executed: the run's own
	// copy of the input with every mid-run rescheduling patch applied. The
	// input is never mutated; unmoved entries share its Hosts, read-only.
	Table *core.AllocationTable
}

// errTerminated marks a watchdog kill internally.
var errTerminated = errors.New("exec: task terminated by application controller")

// terminationError is a watchdog kill carrying the offending host, so
// the rescheduling loop excludes the machine that actually misbehaved
// (which, for a parallel task, need not be the primary).
type terminationError struct {
	host   string
	reason string
}

func (t *terminationError) Error() string {
	return fmt.Sprintf("%v: %s on %s", errTerminated, t.reason, t.host)
}

func (t *terminationError) Unwrap() error { return errTerminated }

// Execute runs g as placed by table. It returns when every task has
// completed or any task fails permanently.
func (e *Engine) Execute(ctx context.Context, g *afg.Graph, table *core.AllocationTable, opts ...ExecOption) (*Result, error) {
	if e.Reg == nil || e.TB == nil {
		return nil, errors.New("exec: engine needs Reg and TB")
	}
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	shape, err := g.Shape()
	if err != nil {
		return nil, err
	}
	if err := table.Validate(g); err != nil {
		return nil, err
	}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	checkPeriod := e.LoadCheckPeriod
	if checkPeriod <= 0 {
		checkPeriod = 5 * time.Millisecond
	}

	cur := e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	for {
		peak := e.peakInFlight.Load()
		if cur <= peak || e.peakInFlight.CompareAndSwap(peak, cur) {
			break
		}
	}

	seq := e.appSeq.Add(1)
	var idBuf [64]byte
	id := append(append(idBuf[:0], g.Name...), '-')
	id = append(strconv.AppendInt(id, time.Now().UnixNano(), 10), '-')
	id = strconv.AppendUint(id, seq, 10)
	run := &appRun{
		engine:      e,
		g:           g,
		appID:       string(id),
		maxAttempts: maxAttempts,
		period:      checkPeriod,
		ctx:         ctx,
		entries:     append([]core.Placement(nil), table.Entries...),
		ctl:         make([]appController, len(g.Tasks)),
		kick:        make(chan struct{}, 1),
		outputs:     make(map[afg.TaskID][]tasklib.Value, len(g.Tasks)),
		runs:        make([]TaskRun, 0, len(g.Tasks)),
	}
	for _, opt := range opts {
		opt(&run.execOpts)
	}
	if e.Record != nil {
		run.measured = make([]repository.Execution, 0, len(g.Tasks))
	}
	for i := range run.entries { // every task once: Validate checked
		p := &run.entries[i]
		task := g.Tasks[p.Task]
		spec, err := e.Reg.Get(task.Name)
		if err != nil {
			return nil, err
		}
		run.ctl[p.Task] = appController{app: run, task: task, spec: spec, place: p}
		run.ctl[p.Task].pending.Store(int32(1 + len(shape.InEdges(p.Task)))) // its fed ports and Phase 2's hold
	}

	// Phase 1 (Data Manager set-up): every in-edge of the run gets its
	// input slot — the receiving end of the channel, addressed by (task,
	// port), which is this transport's "socket number [and] IP address".
	// All slots being laid out is the paper's acknowledgment collection.
	run.inputs = newRunInputs(shape)
	// Phase 2: the execution startup signal. Whoever takes a task's count
	// to zero starts it: here for a task no edge feeds, else its last
	// producer. The loop counts as started itself, so no early finisher
	// ends the run before it is done; this goroutine then monitors.
	start := time.Now()
	run.left.Store(1)
	for i := range run.ctl {
		if ac := run.release(afg.TaskID(i)); ac != nil {
			go ac.main()
		}
	}
	run.leave()
	run.monitor()
	// The controllers have joined: the write-back "after an application
	// execution is completed", off every task's critical path.
	if e.Record != nil && len(run.measured) > 0 {
		e.Record(run.measured)
	}
	if run.err != nil { // written before its controller left: see main
		return nil, run.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{
		AppID:       run.appID,
		Outputs:     run.outputs,
		Runs:        run.runs,
		Makespan:    time.Since(start),
		Rescheduled: run.rescheduled,
		FailedHosts: run.failedHosts,
		Table:       &core.AllocationTable{App: table.App, Entries: run.entries},
	}
	return res, nil
}

// appRun is the state block of one application execution: the run's own
// copy of the allocation table and one controller per task, both reached
// by task ID, plus what the controllers report under mu.
type appRun struct {
	engine      *Engine
	g           *afg.Graph
	appID       string
	maxAttempts int
	period      time.Duration   // the monitoring loop's check period
	execOpts                    // sink: the optional recovery-event stream
	ctx         context.Context // the caller's: its end is a verdict on every attempt
	inputs      runInputs       // the run's Data Manager

	// entries is the table as executed, handed out as Result.Table: a
	// reschedule patches the task's entry in place. Hosts slices are
	// shared with the caller's table until then, and never written.
	entries []core.Placement
	ctl     []appController // by task ID
	// left counts the started controllers still in. kick wakes the loop:
	// a wait registered a wake-up, or the last controller left.
	left atomic.Int32
	kick chan struct{}

	mu          sync.Mutex
	err         error // the first failure; it aborts the run
	outputs     map[afg.TaskID][]tasklib.Value
	runs        []TaskRun
	measured    []repository.Execution // successful runs, for Engine.Record
	rescheduled int
	failedHosts []string
}

// monitor is the Application Controller's monitoring loop, one per
// application, on the goroutine that called Execute, and the run's one
// clock: at least every period it applies the run's end and the
// termination rule to each controller under supervision, and at each
// registered wake-up ends a wait. A verdict on a computing attempt
// starts a goroutine that carries the controller on.
func (r *appRun) monitor() {
	clock, _ := r.engine.clocks.Get().(*time.Timer)
	if clock == nil {
		clock = time.NewTimer(r.period)
	} else {
		clock.Reset(r.period)
	}
	defer r.engine.clocks.Put(clock)
	defer clock.Stop() // since go 1.23 a stopped timer holds no stale tick
	for {
		select {
		case <-r.kick:
		case <-clock.C:
		}
		if r.left.Load() == 0 {
			return
		}
		now := time.Now()
		next := now.Add(r.period)
		ended := r.ended()
		r.mu.Lock()
		for i := range r.ctl {
			ac := &r.ctl[i]
			if ac.sup == unsupervised {
				continue
			}
			verdict := ended
			if verdict == nil {
				verdict = ac.shouldTerminate()
			}
			switch {
			case ac.sup == computing && verdict != nil:
				ac.sup, ac.token = unsupervised, ac.token+1
				go ac.resume(verdict)
			case ac.sup == waiting && (verdict != nil || !now.Before(ac.wake)):
				ac.sup, ac.verdict = unsupervised, verdict
				ac.woken <- struct{}{} // has room: one send per wait
			case ac.sup == waiting && ac.wake.Before(next):
				next = ac.wake
			}
		}
		r.mu.Unlock()
		clock.Reset(next.Sub(now))
	}
}

// release counts down one of task id's holds and, if it was the last,
// returns its controller, counted as started.
func (r *appRun) release(id afg.TaskID) *appController {
	ac := &r.ctl[id]
	if ac.pending.Add(-1) != 0 {
		return nil
	}
	r.left.Add(1)
	return ac
}

// leave counts one started controller out; the last ends the loop.
func (r *appRun) leave() {
	if r.left.Add(-1) == 0 {
		r.nudge()
	}
}

// nudge wakes the monitoring loop.
func (r *appRun) nudge() {
	select {
	case r.kick <- struct{}{}:
	default: // a kick is pending already
	}
}

// fail records the run's first failure: the monitoring loop's next
// check hands it as a verdict to everything still running or waiting on
// the run's clock. Task controllers call it.
func (r *appRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// ended is the run's end as a verdict: nil while it is live, the
// caller's context's error once that ends, context.Canceled once a task
// failed.
func (r *appRun) ended() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return context.Canceled
	}
	return r.ctx.Err()
}

// emit streams one recovery event to the run's sink, if any.
func (r *appRun) emit(ev Event) {
	if r.sink != nil {
		r.sink(ev)
	}
}

// recordFailedHost remembers a host lost to failure (not overload),
// first observation wins the ordering.
func (r *appRun) recordFailedHost(host string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Contains(r.failedHosts, host) {
		r.failedHosts = append(r.failedHosts, host)
	}
}

// recordRun logs one attempt; a successful one, which ran on host, is
// also a measurement for the run's write-back.
func (r *appRun) recordRun(tr TaskRun, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs = append(r.runs, tr)
	if ok && r.measured != nil {
		r.measured = append(r.measured, repository.Execution{
			Task: tr.TaskName, Host: tr.Host, Elapsed: tr.Elapsed, At: tr.End})
	}
}
