// Package exec implements the VDCE Runtime System's execution path: the
// Application Controller, which sets up the execution environment on
// each assigned machine, monitors the run, and requests rescheduling
// when a machine's load crosses the threshold; and the Data Manager, the
// socket-based point-to-point communication system for inter-task data.
//
// The lifecycle follows §4. An Engine has one Data Manager endpoint — a
// loopback TCP listener opened by the first run that has dataflow edges
// and released by Close — and one persistent stream to it per source
// host, so connections number O(hosts) however many runs, tasks and
// edges pass through. Channel set-up for a run is entering its input
// slots, one per in-edge, in the endpoint's demux table; when all are
// entered (the acknowledgment) the execution startup signal is given.
// Tasks run, watched by the run's one monitoring loop on the goroutine
// that called Execute; each output crosses TCP as one checksummed frame
// addressed to (run, task, port), the endpoint's readers decode it
// into the slot the consuming controller waits on, and when the run ends
// its completed executions are reported together so the Site Manager can
// update the task-performance database. Leaving the run removes its
// slots: frames still in flight for it are counted and dropped. A run
// whose graph has no edges never touches the endpoint.
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
	"vdce/internal/protocol"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// Engine executes scheduled applications on the simulated testbed with
// real task code and real TCP data channels.
type Engine struct {
	// Reg resolves task names to implementations.
	Reg *tasklib.Registry
	// TB supplies the host models (dilation, load, failure, memory).
	TB *testbed.Testbed
	// Record receives a run's measurements — one ExecutionRecord per
	// successful task run, in completion order — in one call when the
	// run ends, before Execute returns: on success, failure and cancel
	// alike, and not at all when no task succeeded. Optional.
	Record func([]protocol.ExecutionRecord)
	// LoadThreshold is the Application Controller's termination trigger:
	// if the primary host's load exceeds it mid-run, the task is killed
	// and rescheduled. <= 0 disables the check.
	LoadThreshold float64
	// LoadCheckPeriod is each run's monitoring cadence (default 5ms).
	LoadCheckPeriod time.Duration
	// DilationScale stretches task runtimes by the host model's dilation
	// factor to emulate heterogeneous hardware: extra sleep =
	// elapsed * (dilation-1) * DilationScale. 0 disables dilation.
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
	// Health, when non-nil, is the failure detector: every attempt's
	// outcome is recorded there (a completed run a success, a watchdog
	// host failure a failure — quarantine's evidence), and the monitoring
	// loops ask it every check period whether a watched host is confirmed
	// dead, so a death interrupts every task on the host even when the
	// host model itself looks alive (a network partition: the machine
	// computes on, but its results are unreachable).
	Health *detect.Detector
	// Console gates task dispatch (suspend/resume). Optional.
	Console *services.Console
	// Log receives structured recovery events (host failures, task
	// reschedules) correlated by app ID. Optional; nil discards.
	Log *slog.Logger

	// retryOnce/retry materialize Retry into the shared gate.
	retryOnce sync.Once
	retry     *retryGate

	// dmMu guards dm, the Data Manager endpoint (datamanager.go): nil
	// until a run with dataflow edges needs it and again after Close.
	dmMu     sync.Mutex
	dm       *endpoint
	closed   atomic.Bool
	transfer transferTallies

	// appSeq numbers the runs: it disambiguates app IDs of same-named
	// graphs submitted within the same nanosecond and is the run sequence
	// data frames are addressed to.
	appSeq atomic.Uint64
	// inFlight/peakInFlight gauge how many applications execute
	// simultaneously.
	inFlight     atomic.Int32
	peakInFlight atomic.Int32
}

// lockHosts takes the run lock of every machine of a placement: a host
// runs one task at a time — across every application and every engine
// placing work on it — exactly as the schedule simulator assumes. Locks
// are taken in host-name order so multi-host (parallel) tasks cannot
// deadlock against each other, and no placement names a host twice
// (Validate, checkReplacement). It returns the hosts in locking order
// for unlockHosts; hosts itself is not reordered.
func lockHosts(hosts []*testbed.Host) []*testbed.Host {
	if len(hosts) > 1 {
		hosts = slices.Clone(hosts)
		slices.SortFunc(hosts, func(a, b *testbed.Host) int { return strings.Compare(a.Name, b.Name) })
	}
	for _, h := range hosts {
		h.RunLock.Lock()
	}
	return hosts
}

func unlockHosts(hosts []*testbed.Host) {
	for i := len(hosts) - 1; i >= 0; i-- {
		hosts[i].RunLock.Unlock()
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
	if e.Health == nil {
		return false
	}
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
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &appRun{
		engine:      e,
		g:           g,
		appID:       string(id),
		maxAttempts: maxAttempts,
		cancel:      cancel,
		entries:     append([]core.Placement(nil), table.Entries...),
		ctl:         make([]appController, len(g.Tasks)),
		done:        make(chan struct{}),
		outputs:     make(map[afg.TaskID][]tasklib.Value, len(g.Tasks)),
		runs:        make([]TaskRun, 0, len(g.Tasks)),
	}
	for _, opt := range opts {
		opt(&run.execOpts)
	}
	if e.Record != nil {
		run.measured = make([]protocol.ExecutionRecord, 0, len(g.Tasks))
	}
	for i := range run.entries { // every task once: Validate checked
		p := &run.entries[i]
		task := g.Tasks[p.Task]
		spec, err := e.Reg.Get(task.Name)
		if err != nil {
			return nil, err
		}
		run.ctl[p.Task] = appController{app: run, task: task, spec: spec, place: p}
	}

	// Phase 1 (Data Manager set-up): every in-edge of the run gets its
	// input slot in the endpoint's demux table — the receiving end of the
	// channel, addressed by (run sequence, task, port), which is this
	// transport's "socket number [and] IP address". All slots being
	// registered is the paper's acknowledgment collection.
	if len(g.Edges) > 0 {
		dm, err := e.dataManager()
		if err != nil {
			return nil, err
		}
		inputs, err := newRunInputs(seq, g, run.fail)
		if err != nil {
			return nil, err
		}
		if err := dm.register(inputs); err != nil {
			return nil, err
		}
		defer dm.unregister(seq)
		run.dm, run.inputs = dm, inputs
	}

	// Phase 2: the execution startup signal; this goroutine then monitors.
	start := time.Now()
	if len(run.ctl) > 0 {
		run.left.Store(int32(len(run.ctl)))
		for i := range run.ctl {
			go run.ctl[i].main(runCtx)
		}
		run.monitor(checkPeriod)
	}
	// The controllers have joined: the write-back "after an application
	// execution is completed", off every task's critical path.
	if e.Record != nil && len(run.measured) > 0 {
		e.Record(run.measured)
	}
	run.mu.Lock() // a Data Manager reader may still be failing the run
	err := run.err
	run.mu.Unlock()
	if err != nil {
		return nil, err
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
	execOpts    // sink: the optional recovery-event stream
	cancel      context.CancelFunc
	// dm and inputs are the run's Data Manager registration; both nil
	// when the graph has no dataflow edges.
	dm     *endpoint
	inputs *runInputs

	// entries is the table as executed, handed out as Result.Table: a
	// reschedule patches the task's entry in place. Hosts slices are
	// shared with the caller's table until then, and never written.
	entries []core.Placement
	ctl     []appController // by task ID
	// The last of the left controllers out closes done: the loop's end.
	left atomic.Int32
	done chan struct{}

	mu          sync.Mutex
	err         error // the first failure; it aborts the run
	outputs     map[afg.TaskID][]tasklib.Value
	runs        []TaskRun
	measured    []protocol.ExecutionRecord // successful runs, for Engine.Record
	rescheduled int
	failedHosts []string
}

// monitor is the Application Controller's monitoring loop, one per
// application, on the goroutine that called Execute: every period it
// applies the termination rule to each attempt under supervision.
func (r *appRun) monitor(period time.Duration) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		for i := range r.ctl {
			ac := &r.ctl[i]
			if ac.out == nil {
				continue // between attempts, or already told
			}
			if term := ac.shouldTerminate(); term != nil {
				ac.out <- outcome{err: term} // has room: see attempt
				ac.out = nil
			}
		}
		r.mu.Unlock()
	}
}

// fail records the run's first failure and cancels everything still
// running or parked on inputs. Task controllers call it, and so does
// the Data Manager when it rejects a delivery addressed to the run.
func (r *appRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
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
		r.measured = append(r.measured, protocol.ExecutionRecord{
			Task: tr.TaskName, Host: tr.Host, Elapsed: tr.Elapsed, At: tr.End})
	}
}
