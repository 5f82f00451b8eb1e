package vdce

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
)

// JobState is a job's position in the submission lifecycle.
type JobState int32

const (
	// JobQueued: admitted, waiting for a scheduler worker.
	JobQueued JobState = iota
	// JobScheduling: a scheduler worker is running the site-scheduler
	// round (Fig. 2) for the job.
	JobScheduling
	// JobRunning: the execution engine is running the task graph.
	JobRunning
	// JobDone: every task completed; Result is available.
	JobDone
	// JobFailed: scheduling or execution failed permanently; Err is set.
	JobFailed
	// JobCanceled: the job was canceled — dropped from the admission
	// queue if it had not started, aborted through the execution engine's
	// cancellation path if it had. Err is ErrJobCanceled.
	JobCanceled
)

// terminal reports whether s is done, failed or canceled — the states a
// job never leaves.
func (s JobState) terminal() bool { return s >= JobDone }

// String returns the services-layer state name.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return services.JobStateQueued
	case JobScheduling:
		return services.JobStateScheduling
	case JobRunning:
		return services.JobStateRunning
	case JobDone:
		return services.JobStateDone
	case JobFailed:
		return services.JobStateFailed
	case JobCanceled:
		return services.JobStateCanceled
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Pipeline errors.
var (
	// ErrPipelineClosed is returned by Submit after the environment shut
	// down, and is the terminal error of a job Close ended.
	ErrPipelineClosed = errors.New("vdce: submission pipeline closed")
	// ErrJobCanceled is the terminal error of a job ended by Cancel.
	ErrJobCanceled = errors.New("vdce: job canceled")
	// ErrJobDeadlineExceeded is the terminal error of a job whose
	// WithDeadline expired before it could finish (see WithDeadline).
	ErrJobDeadlineExceeded = errors.New("vdce: job deadline exceeded")
)

// SubmitOption configures one submission; the With functions make
// them. Options compose left to right; later options win on conflict.
// An option is a value: passing one allocates nothing.
type SubmitOption struct {
	set    optionField
	n      int
	owner  string
	at     time.Time
	labels map[string]string
}

// optionField is the submission field a SubmitOption sets.
type optionField uint8

const (
	optOwner optionField = iota + 1
	optPriority
	optShareWeight
	optDeadline
	optHome
	optMaxHosts
	optLabels
)

// WithOwner submits on behalf of a named user: the job schedules from
// the accounts site (site 0) unless WithHomeSite overrides it, the
// owner's access domain clamps the neighbor-site count (ClampK), and —
// unless WithPriority overrides it — the job's priority defaults to the
// owner's user-account priority.
func WithOwner(owner string) SubmitOption {
	return SubmitOption{set: optOwner, owner: owner}
}

// WithPriority sets the job's base admission priority explicitly. Higher
// values are admitted first; equal effective priorities dequeue FIFO.
// Without it, owned jobs inherit the owner's user-account priority and
// anonymous jobs default to 0.
func WithPriority(p int) SubmitOption {
	return SubmitOption{set: optPriority, n: p}
}

// MaxShareWeight caps an owner's fair-share weight. The weight field
// is client-settable on the HTTP surface, so — like the saturating
// admission-priority clamp — it must not let one caller assign itself
// an effectively infinite dispatch share: weights are clamped into
// [1, MaxShareWeight], bounding any owner's advantage at
// MaxShareWeight:1 while every other owner keeps a nonzero share.
const MaxShareWeight = 100

// WithShareWeight sets the owner's weighted-fair-queuing weight,
// clamped into [1, MaxShareWeight]. Across owners the admission queue
// drains in proportion to weight — an owner with weight 2 dispatches
// twice the jobs of a weight-1 owner over any backlogged interval —
// regardless of job priorities, which only order jobs within one
// owner. Without it, owned jobs default their weight from the owner's
// user-account priority and anonymous jobs weigh 1. The owner's
// latest submission's weight wins.
func WithShareWeight(w int) SubmitOption {
	return SubmitOption{set: optShareWeight, n: w}
}

// clampShareWeight saturates a weight into [1, MaxShareWeight].
func clampShareWeight(w int) int {
	if w < 1 {
		return 1
	}
	if w > MaxShareWeight {
		return MaxShareWeight
	}
	return w
}

// WithDeadline bounds the job's whole lifetime, every wait included: a
// job still queued at the deadline is dropped before it reaches a
// scheduler worker, a scheduled job parked on its owner's held hosts or
// waiting for a run slot is ended there (freeing the worker), and a
// running job is aborted through the execution engine's cancellation
// path. The job fails with ErrJobDeadlineExceeded, followed by the
// engine's error when the run had started.
func WithDeadline(t time.Time) SubmitOption {
	return SubmitOption{set: optDeadline, at: t}
}

// WithHomeSite pins the scheduling round to site index i instead of the
// default (round-robin for anonymous jobs, site 0 for owned jobs).
func WithHomeSite(i int) SubmitOption {
	return SubmitOption{set: optHome, n: i}
}

// WithMaxHosts sets k, the scheduler's nearest-neighbor site count
// (Fig. 2 step 2): how far beyond the home site the job's tasks may be
// placed. Owned jobs still have k clamped by the owner's access domain.
// Default 0 (home site only).
func WithMaxHosts(k int) SubmitOption {
	return SubmitOption{set: optMaxHosts, n: k}
}

// WithLabels attaches caller metadata to the job; labels are carried on
// the Job handle and surfaced verbatim by the job-control API.
func WithLabels(labels map[string]string) SubmitOption {
	return SubmitOption{set: optLabels, labels: labels}
}

// Job is the caller's handle on one application moving through the
// submission pipeline, and the only place its result lives. All else is
// the pipeline's record of the job, which the handle embeds: a job whose
// handle is gone keeps its status and trace, but no result.
//
// Lifecycle contract: Done returns a channel that is closed exactly once,
// when the job reaches a terminal state (done, failed, or canceled); no
// state transitions happen after it closes. Wait blocks on that channel
// and returns the job's own terminal error — nil for success,
// ErrJobCanceled after Cancel, ErrJobDeadlineExceeded after a deadline
// expiry, the scheduling/execution error otherwise. When Wait's ctx ends
// first, Wait returns the ctx error, but a job that is already terminal
// always reports its own error even if ctx is also done.
type Job struct {
	*jobRecord
	result atomic.Pointer[exec.Result]
}

// jobRecord is the pipeline's record of a live job: what the handle
// index, the admission queue and recovery hold. It reaches the caller's
// handle only through a weak pointer, so a result no caller holds is
// garbage as soon as the job ends, and the pipeline lets go of the record
// then too: a finished job lives on as its board row.
type jobRecord struct {
	// ID is the pipeline-assigned identifier ("job-<n>").
	ID string
	// Owner is the submitting user (may be empty for direct submissions).
	Owner string
	// Graph is the application flow graph being scheduled and executed.
	Graph *afg.Graph
	// K is the neighbor-site count used for the job's scheduling round
	// (WithMaxHosts after any access-domain clamp).
	K int
	// Labels is the caller metadata attached with WithLabels (may be nil).
	Labels map[string]string

	// handle is the caller's handle; zero for a recovered job, which has none.
	handle weak.Pointer[Job]
	// home is the site index the scheduling round runs from.
	home int
	// priority is the base admission priority; the effective priority
	// ages upward while the job waits (see admitQueue).
	priority int
	// shareWeight is the owner's resolved fair-share weight carried by
	// this submission (>= 1; the owner's latest submission wins).
	shareWeight int
	// usageCharged and heldHosts are the admission queue's ledger for
	// this job, guarded by its lock, not j.mu: the in-flight charge from
	// pop to release, and the distinct hosts the job holds from dispatch
	// to release — its placement plus any host a reschedule moved a task
	// onto (holdHosts). Status reports the set's size as hosts_held.
	usageCharged bool
	heldHosts    map[string]struct{}
	// hostParked marks a job parked on the held-hosts cap (guarded by
	// the admission queue's lock); while set, the owner is skipped by
	// pop so parked dispatches stay bounded at one per owner.
	hostParked bool
	// queue is the job's place in its owner's admission backlog (guarded
	// by the admission queue's lock).
	queue queueSlot
	// deadline bounds the job's lifetime; zero means none.
	deadline time.Time
	// recovered marks a job that was in flight when a previous
	// incarnation of the control plane died and was re-adopted from the
	// durable store on boot (immutable after registration).
	recovered bool
	pipe      *pipeline
	done      chan struct{}

	mu     sync.Mutex
	state  JobState
	queued bool // in the admission queue until a claim or drop takes it
	// ctx is the job's one end signal, live from registration to the
	// terminal state: Cancel, the deadline and shutdown all end it, and
	// its cause picks the terminal state (see end). cancel is its
	// CancelCauseFunc; stop unregisters the drop hook of a job with a
	// deadline. terminalize drops all three.
	ctx    context.Context
	cancel context.CancelCauseFunc
	stop   func() bool
	table  *core.AllocationTable
	err    error
	// timings is the one copy of the job's lifecycle stamps. Its
	// SubmittedAt is also the admission queue's aging origin, the original
	// submission even for a job re-adopted from the durable store, so the
	// within-owner dequeue order carries across a restart. While the job
	// is live, Status and Trace hand out copies; terminalize seals it, and
	// from then on the record's Status and Trace share it, while the board
	// row keeps its own copy.
	timings services.JobTimings
	// phases has one bit per phase the trace shows (a terminal restore
	// keeps its running_at as a timing, not as a trace event).
	phases uint8
	// points are the trace's point events in order; nil for a job that
	// never parked, moved, lost a host or was recovered.
	points []services.TracePoint
	// recovery observability, fed live by the engine's event stream:
	// how many times a task of this job was rescheduled mid-run, and the
	// distinct hosts lost to failure (first-observed order).
	reschedules int
	failedHosts []string
	// replayPending marks a job re-admitted by the boot replay that has
	// not yet reached a scheduler worker or a terminal state; it backs
	// the pipeline's recovery-backlog gauge behind /readyz.
	replayPending bool
}

// State returns the job's current lifecycle state.
func (j *jobRecord) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Priority returns the job's base admission priority.
func (j *jobRecord) Priority() int { return j.priority }

// ShareWeight returns the owner fair-share weight this submission
// carried (>= 1).
func (j *jobRecord) ShareWeight() int { return j.shareWeight }

// Deadline returns the job's deadline and whether one was set.
func (j *jobRecord) Deadline() (time.Time, bool) { return j.deadline, !j.deadline.IsZero() }

// Table returns the resource allocation table once scheduling finished,
// else nil.
func (j *jobRecord) Table() *core.AllocationTable {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table
}

// Result returns the execution result once the job is done, else nil.
// It lives on this handle alone. Its Outputs are readable from Done
// until retainedOutputBytes of newer results have completed; after that
// Result returns a copy with Outputs nil and OutputsEvicted set, every
// other field intact.
func (j *Job) Result() *exec.Result { return j.result.Load() }

// Err returns the terminal error of a failed or canceled job, else nil.
func (j *jobRecord) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state
// (done, failed, or canceled). After it closes, State, Err, Table, and
// Result are final.
func (j *jobRecord) Done() <-chan struct{} { return j.done }

// Wait blocks until the job reaches a terminal state or ctx ends. It
// returns the job's own terminal error (nil when the job succeeded,
// ErrJobCanceled / ErrJobDeadlineExceeded for canceled and expired jobs);
// a job that is already terminal reports its own error even when ctx is
// also done. Only when ctx ends while the job is still in flight does
// Wait return the ctx error.
func (j *jobRecord) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	default:
	}
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		// The job may have finished in the same instant; prefer its own
		// terminal error over the ctx error.
		select {
		case <-j.done:
			return j.Err()
		default:
		}
		return ctx.Err()
	}
}

// Cancel requests cancellation. A queued job is dropped from the
// admission queue and is terminal when Cancel returns; a scheduling or
// running job is aborted through the execution engine's cancellation
// path and terminalizes shortly after. Canceling a terminal job is a
// no-op. The terminal state is JobCanceled with Err() == ErrJobCanceled,
// unless the deadline or shutdown ended the job first.
func (j *jobRecord) Cancel() {
	j.mu.Lock()
	cancel, stop := j.cancel, j.stop
	j.mu.Unlock()
	if cancel != nil {
		if stop != nil {
			stop() // this drop, not the deadline hook's, ends a queued job
		}
		cancel(ErrJobCanceled)
		j.pipe.drop(j)
	}
}

// Reschedules reports how many times the engine moved one of the job's
// tasks mid-run; it grows live while the job executes.
func (j *jobRecord) Reschedules() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reschedules
}

// FailedHosts returns the distinct hosts whose failure forced one of
// the job's tasks to move, in first-observed order.
func (j *jobRecord) FailedHosts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.failedHosts...)
}

// Lifecycle phases in pipeline order: a phase's bit in a job's phases and
// its place in the trace.
const (
	phSubmitted = iota
	phAdmitted
	phScheduled
	phDispatched
	phRunning
	phTerminal
)

// phaseNames name the phases before the terminal one, which is named
// after the job's final state.
var phaseNames = [phTerminal]string{
	services.PhaseSubmitted, services.PhaseAdmitted, services.PhaseScheduled,
	services.PhaseDispatched, services.PhaseRunning,
}

// phaseAt returns the timings field phase ph is stamped in.
func phaseAt(t *services.JobTimings, ph int) *time.Time {
	return [...]*time.Time{&t.SubmittedAt, &t.AdmittedAt, &t.ScheduledAt,
		&t.DispatchedAt, &t.RunningAt, &t.FinishedAt}[ph]
}

// walkTrace walks a job's trace — stamped phases in lifecycle order, each
// point event after the phases stamped before it, the terminal event
// named state with detail — clamping timestamps to the running maximum,
// so it is non-decreasing even across wall-clock steps. It appends the
// events to *dst unless dst is nil and returns the last timestamp.
func walkTrace(dst *[]services.TraceEvent, t *services.JobTimings, phases uint8, points []services.TracePoint,
	state, detail string) (last time.Time) {
	emit := func(e services.TraceEvent) {
		if e.At.Before(last) {
			e.At = last
		}
		last = e.At
		if dst != nil {
			*dst = append(*dst, e)
		}
	}
	stamped := 0
	for ph := phSubmitted; ph <= phTerminal; ph++ {
		if phases&(1<<ph) == 0 {
			continue
		}
		for ; len(points) > 0 && points[0].After == stamped; points = points[1:] {
			emit(points[0].TraceEvent)
		}
		e := services.TraceEvent{At: *phaseAt(t, ph), Event: state, Detail: detail}
		if ph < phTerminal {
			e.Event, e.Detail = phaseNames[ph], ""
		}
		emit(e)
		stamped++
	}
	for _, p := range points {
		emit(p.TraceEvent)
	}
	return last
}

// traceOf renders a job's status as its trace, through walkTrace: a live
// record's status and a finished job's board row go the same way.
func traceOf(s services.JobStatus) services.JobTrace {
	events := make([]services.TraceEvent, 0, bits.OnesCount8(s.Phases)+len(s.Points))
	walkTrace(&events, s.Timings, s.Phases, s.Points, s.State, s.Error)
	return services.JobTrace{ID: s.ID, Owner: s.Owner, State: s.State, Events: events, Timings: s.Timings}
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// stampLocked records phase ph at the given instant and reports whether
// it did: a terminal job's timings are sealed. The running stamp keeps
// its clamped trace instant, the waits before it the raw one. Caller
// holds j.mu.
func (j *jobRecord) stampLocked(ph int, at time.Time) bool {
	if j.state.terminal() {
		return false
	}
	j.phases |= 1 << ph
	*phaseAt(&j.timings, ph) = at
	if ph == phRunning {
		j.timings.RunningAt = walkTrace(nil, &j.timings, j.phases, j.points, "", "")
	}
	return true
}

// stampPhase records the admitted, scheduled or dispatched phase at the
// given instant and returns the wait since the phase before it (zero
// when that is unset or the job is terminal).
func (j *jobRecord) stampPhase(ph int, at time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	prev := *phaseAt(&j.timings, ph-1)
	if !j.stampLocked(ph, at) || prev.IsZero() {
		return 0
	}
	return max(at.Sub(prev), 0)
}

// sealLocked stamps the terminal phase at the given instant, clamped
// into the trace, and fills the derived seconds once: from here on the
// block is read-only. Caller holds j.mu and has set the terminal state.
func (j *jobRecord) sealLocked(at time.Time) {
	j.phases |= 1 << phTerminal
	j.timings.FinishedAt = at
	j.timings.FinishedAt = walkTrace(nil, &j.timings, j.phases, j.points, "", "")
	fillSeconds(&j.timings)
}

// fillSeconds derives t's phase durations from its stamps.
func fillSeconds(t *services.JobTimings) {
	t.SubmitWaitSeconds = secondsBetween(t.SubmittedAt, t.AdmittedAt)
	t.QueueWaitSeconds = secondsBetween(t.AdmittedAt, t.ScheduledAt)
	t.DispatchWaitSeconds = secondsBetween(t.ScheduledAt, t.DispatchedAt)
	t.RunSeconds = secondsBetween(t.RunningAt, t.FinishedAt)
	t.TotalSeconds = secondsBetween(t.SubmittedAt, t.FinishedAt)
}

// secondsBetween is to - from in seconds: zero when either is unset or
// to is not after from.
func secondsBetween(from, to time.Time) float64 {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return max(to.Sub(from), 0).Seconds()
}

// timingsLocked is the block a status or trace carries: the sealed one
// itself once the job is terminal, a copy with the seconds derived while
// it is live. Caller holds j.mu.
func (j *jobRecord) timingsLocked() *services.JobTimings {
	if j.state.terminal() {
		return &j.timings
	}
	t := j.timings
	fillSeconds(&t)
	return &t
}

// pointLocked appends a point event at the given instant; a terminal
// job takes none. Caller holds j.mu.
func (j *jobRecord) pointLocked(event, detail string, at time.Time) {
	if !j.state.terminal() {
		j.points = append(j.points, services.TracePoint{TraceEvent: services.TraceEvent{At: at, Event: event, Detail: detail},
			After: bits.OnesCount8(j.phases)})
	}
}

// stampEvent appends a detail-less point event (host-park, host-unpark)
// to the trace.
func (j *jobRecord) stampEvent(event string) {
	j.mu.Lock()
	j.pointLocked(event, "", time.Now())
	j.mu.Unlock()
}

// Trace returns the job's ordered lifecycle trace: every phase
// boundary crossed so far plus recovery point events, with the derived
// timings block.
func (j *jobRecord) Trace() services.JobTrace {
	return traceOf(j.Status())
}

// execEvent consumes the engine's recovery event stream for this job,
// keeping the status' reschedule/failed-host view live while the run is
// still in flight. A reschedule's replacement hosts join the job's held
// set (holdHosts), so quota accounting tracks where the job actually
// runs, not just where it was dispatched.
//
// Events that arrive after the job is terminal — a canceled run's
// engine still unwinding — are dropped: a terminal status never changes
// and nothing follows a job's terminal event on the stream.
func (j *jobRecord) execEvent(ev exec.Event) {
	var typ string
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	switch m := j.pipe.env.obsM; ev.Type {
	case exec.EventRescheduled:
		j.reschedules++
		j.pointLocked("rescheduled", ev.Host, time.Now())
		typ = jobsapi.EventRescheduled
		m.reschedules.Inc()
	case exec.EventHostFailure:
		if !slices.Contains(j.failedHosts, ev.Host) {
			j.failedHosts = append(j.failedHosts, ev.Host)
		}
		j.pointLocked("host-failure", ev.Host, time.Now())
		typ = jobsapi.EventHostFailure
		m.hostFailures.Inc()
	default:
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()
	if ev.Type == exec.EventRescheduled {
		if _, grew := j.pipe.admit.holdHosts(j, ev.Hosts); grew {
			j.publishHeld()
		}
	}
	// Recovery flows to the stream typed, so subscribers see "a task
	// moved" distinctly from ordinary lifecycle churn.
	j.publishEvent(typ)
}

// Status snapshots the job for the monitoring board and the job-control
// API. Queued jobs carry their live admission-queue position.
func (j *jobRecord) Status() services.JobStatus {
	j.mu.Lock()
	t := j.timingsLocked()
	s := services.JobStatus{
		ID:          j.ID,
		App:         j.Graph.Name,
		Owner:       j.Owner,
		State:       j.state.String(),
		Priority:    j.priority,
		ShareWeight: j.shareWeight,
		Labels:      j.Labels,
		Reschedules: j.reschedules,
		FailedHosts: append([]string(nil), j.failedHosts...),
		Recovered:   j.recovered,
		SubmittedAt: t.SubmittedAt,
		StartedAt:   t.RunningAt,
		FinishedAt:  t.FinishedAt,
		Deadline:    j.deadline,
		Error:       errText(j.err),
		Timings:     t,
		Phases:      j.phases,
		Points:      j.points,
	}
	j.mu.Unlock()
	switch s.State {
	case services.JobStateQueued:
		j.pipe.liveQueued(&s, j)
	case services.JobStateScheduling, services.JobStateRunning:
		s.HostsHeld = j.pipe.admit.heldCount(j)
	}
	return s
}

// claim moves a popped job from queued to scheduling and returns its
// context, which the worker carries through the round, the dispatch and
// the run. It fails for a job a drop took, and for one whose context
// ended while it was queued: whatever ended the context drops the job,
// so it never reaches a scheduling round.
func (j *jobRecord) claim() (context.Context, bool) {
	j.mu.Lock()
	if !j.queued || j.ctx.Err() != nil {
		j.mu.Unlock()
		return nil, false
	}
	j.queued = false
	j.state = JobScheduling
	ctx := j.ctx
	j.mu.Unlock()
	j.noteReplayDone()
	j.publish()
	j.pipe.persistState(j)
	return ctx, true
}

// end terminalizes a job whose context ended, by the context's cause:
// Cancel leaves it canceled, the deadline and shutdown fail it with
// their own error. runErr is the engine's error when the run had
// started; it is kept after the cause.
func (j *jobRecord) end(ctx context.Context, runErr error) {
	state, err := JobFailed, context.Cause(ctx)
	switch {
	case errors.Is(err, ErrJobCanceled):
		state = JobCanceled
	case runErr != nil:
		err = fmt.Errorf("%w: %v", err, runErr)
	}
	j.terminalize(state, err, nil)
}

// noteReplayDone clears the job's recovery-replay pending mark and
// decrements the pipeline's replay-backlog gauge; idempotent, a no-op
// for jobs the boot replay never touched.
func (j *jobRecord) noteReplayDone() {
	j.mu.Lock()
	pending := j.replayPending
	j.replayPending = false
	j.mu.Unlock()
	if pending {
		j.pipe.recoveryPending.Add(-1)
	}
}

// markRunning moves a dispatched job to running at the given instant
// and publishes it; a terminal job stays as it is.
func (j *jobRecord) markRunning(at time.Time) {
	j.mu.Lock()
	if !j.stampLocked(phRunning, at) {
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.mu.Unlock()
	j.publish()
	j.pipe.persistState(j)
}

// setTable records the scheduling artifact.
func (j *jobRecord) setTable(t *core.AllocationTable) {
	j.mu.Lock()
	j.table = t
	j.mu.Unlock()
}

// terminalize moves the job to a terminal state exactly once; later
// calls (a Cancel racing a worker, shutdown racing a deadline) are
// no-ops. It reports whether this call won.
func (j *jobRecord) terminalize(state JobState, err error, res *exec.Result) bool {
	// The result goes to the caller's handle if it is still alive, and
	// nowhere else: with the handle gone it is garbage at once.
	h := j.handle.Value()
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.err = err
	if h != nil {
		h.result.Store(res)
	}
	j.sealLocked(time.Now())
	runSecs, totalSecs := j.timings.RunSeconds, j.timings.TotalSeconds
	// Nothing of the job's lifetime outlives it: the hook is stopped and
	// the context canceled, which detaches it (deadline timer included)
	// from the environment's.
	stop, cancel := j.stop, j.cancel
	j.ctx, j.cancel, j.stop = nil, nil, nil
	j.mu.Unlock()
	if stop != nil {
		stop()
	}
	if cancel != nil {
		cancel(nil)
	}
	p, m := j.pipe, j.pipe.env.obsM
	if runSecs > 0 {
		m.phaseRun.Observe(runSecs)
	}
	if totalSecs > 0 {
		m.phaseTotal.Observe(totalSecs)
	}
	switch state {
	case JobDone:
		m.completedDone.Inc()
	case JobFailed:
		m.completedFailed.Inc()
	case JobCanceled:
		m.completedCanceled.Inc()
	}
	// Attrs, not key-value pairs: nothing is boxed. Handlers skip the
	// empty error attr of a job that succeeded.
	lvl, errAttr := slog.LevelInfo, slog.Attr{}
	if err != nil {
		lvl, errAttr = slog.LevelWarn, slog.String("error", err.Error())
	}
	p.env.log.LogAttrs(context.Background(), lvl, "job finished", slog.String("job_id", j.ID), slog.String("owner", j.Owner),
		slog.String("state", state.String()), errAttr, slog.Float64("total_seconds", totalSecs))
	j.noteReplayDone()
	// Return the job's in-flight and held-host quota charges before the
	// final status publishes, so owner counters never show a terminal
	// job as still consuming capacity.
	p.jobReleased(j)
	if h != nil && res != nil {
		p.retainOutputs(j.ID, j.handle, res)
	}
	j.publish()
	p.persistState(j)
	// The terminal row is published: from here on the job is its row.
	p.mu.Lock()
	delete(p.byID, j.ID)
	p.mu.Unlock()
	close(j.done)
	return true
}

// complete marks the job done with its execution result.
func (j *jobRecord) complete(res *exec.Result) { j.terminalize(JobDone, nil, res) }

// fail marks the job failed.
func (j *jobRecord) fail(err error) { j.terminalize(JobFailed, err, nil) }

func (j *jobRecord) publish() { j.publishEvent(jobsapi.EventState) }

// publishEvent snapshots the job once and pushes the status to both
// monitoring surfaces: the job board (pull: /v1/jobs) and the event
// broker (push: /v1/events and /v1/jobs/{id}/events), typed so stream
// consumers can tell lifecycle transitions from mid-run recovery. The
// broker gets the status as the board row holds it: a terminal one then
// points at the row's timings, not the record's.
func (j *jobRecord) publishEvent(typ string) {
	j.pipe.events.Publish(typ, j.pipe.env.Board.Update(j.Status()))
}

// publishHeld publishes the job after its held set grew, unless it has
// ended meanwhile: nothing follows a job's terminal event.
func (j *jobRecord) publishHeld() {
	if !j.State().terminal() {
		j.publish()
	}
}
