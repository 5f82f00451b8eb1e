package services

import (
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
)

// Job lifecycle states, in submission order. The pipeline moves every
// application through queued -> scheduling -> running ->
// done|failed|canceled.
const (
	JobStateQueued     = "queued"
	JobStateScheduling = "scheduling"
	JobStateRunning    = "running"
	JobStateDone       = "done"
	JobStateFailed     = "failed"
	JobStateCanceled   = "canceled"
)

// JobStatus is a snapshot of one submitted application's lifecycle,
// published by the submission pipeline for monitoring tools and the
// versioned job-control API.
type JobStatus struct {
	ID    string `json:"id"`
	App   string `json:"app"`
	Owner string `json:"owner,omitempty"`
	State string `json:"state"`
	// Priority is the job's base admission priority (owner account
	// priority unless overridden at submit time).
	Priority int `json:"priority"`
	// ShareWeight is the owner fair-share weight this submission
	// carried: across owners, the admission queue drains in proportion
	// to weight.
	ShareWeight int `json:"share_weight,omitempty"`
	// HostsHeld is how many distinct testbed hosts the job's placement
	// holds while it is dispatched (0 while queued and after it
	// terminalizes) — the unit the per-owner held-hosts quota charges.
	HostsHeld int `json:"hosts_held,omitempty"`
	// QueuePosition is the job's 1-based dequeue position while queued
	// (1 = next to be scheduled); 0 once it left the admission queue.
	QueuePosition int               `json:"queue_position,omitempty"`
	Labels        map[string]string `json:"labels,omitempty"`
	// Reschedules counts mid-run task reschedules the execution engine
	// performed for this job (watchdog- or failure-detector-driven). It
	// updates live while the job runs.
	Reschedules int `json:"reschedules,omitempty"`
	// FailedHosts lists the distinct hosts whose failure (crash or
	// confirmed death — not overload) forced one of the job's tasks to
	// move, in first-observed order. It updates live while the job runs.
	FailedHosts []string `json:"failed_hosts,omitempty"`
	// Recovered marks a job re-adopted from the durable store after a
	// control-plane restart: it was queued or in flight when the previous
	// incarnation died and was re-admitted (and, if in flight,
	// re-dispatched) on boot.
	Recovered   bool      `json:"recovered,omitempty"`
	Deadline    time.Time `json:"deadline,omitzero"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Error       string    `json:"error,omitempty"`
	// Timings is the job's lifecycle phase-boundary block: one timestamp
	// per pipeline phase the job has crossed so far, plus derived
	// durations. Nil only for statuses predating the tracing layer
	// (store records persisted by older incarnations).
	Timings *JobTimings `json:"timings,omitempty"`
	// Phases and Points are what the job's trace renders from besides
	// Timings, off the wire: one bit per lifecycle phase the trace shows,
	// and the point events in order (nil for a job that had none).
	Phases uint8        `json:"-"`
	Points []TracePoint `json:"-"`
}

// Lifecycle phase names, in pipeline order. These are both the trace
// event names and the `phase` label values of the
// vdce_job_phase_seconds histogram.
const (
	PhaseSubmitted  = "submitted"
	PhaseAdmitted   = "admitted"
	PhaseScheduled  = "scheduled"
	PhaseDispatched = "dispatched"
	PhaseRunning    = "running"
)

// JobTimings is the phase-boundary view of one job: when each pipeline
// phase was entered (zero until crossed) and the durations between
// consecutive crossed boundaries, in seconds.
type JobTimings struct {
	SubmittedAt  time.Time `json:"submitted_at,omitzero"`
	AdmittedAt   time.Time `json:"admitted_at,omitzero"`
	ScheduledAt  time.Time `json:"scheduled_at,omitzero"`
	DispatchedAt time.Time `json:"dispatched_at,omitzero"`
	RunningAt    time.Time `json:"running_at,omitzero"`
	FinishedAt   time.Time `json:"finished_at,omitzero"`
	// SubmitWaitSeconds: Submit call to admission-queue entry.
	SubmitWaitSeconds float64 `json:"submit_wait_seconds,omitempty"`
	// QueueWaitSeconds: admission-queue entry to schedule completion.
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// DispatchWaitSeconds: schedule completion to run-slot dispatch
	// (includes host-quota parks and run-slot waits).
	DispatchWaitSeconds float64 `json:"dispatch_wait_seconds,omitempty"`
	// RunSeconds: running to terminal.
	RunSeconds float64 `json:"run_seconds,omitempty"`
	// TotalSeconds: submission to terminal.
	TotalSeconds float64 `json:"total_seconds,omitempty"`
}

// TraceEvent is one entry in a job's lifecycle trace: a phase boundary
// (submitted, admitted, scheduled, dispatched, running, or a terminal
// state) or a recovery point event (host-park, host-unpark,
// rescheduled, host-failure, recovered).
type TraceEvent struct {
	At    time.Time `json:"at"`
	Event string    `json:"event"`
	// Detail carries the event's subject when it has one: the host for
	// rescheduled/host-failure, the error for failed.
	Detail string `json:"detail,omitempty"`
}

// TracePoint is a trace event outside the phase chain (host-park,
// host-unpark, rescheduled, host-failure, recovered) with the number of
// phases stamped before it.
type TracePoint struct {
	TraceEvent
	After int
}

// JobTrace is the full ordered lifecycle trace of one job, served by
// GET /v1/jobs/{id}/trace. Events are append-ordered and their
// timestamps are non-decreasing.
type JobTrace struct {
	ID     string       `json:"id"`
	Owner  string       `json:"owner,omitempty"`
	State  string       `json:"state"`
	Events []TraceEvent `json:"events"`
	// Timings is the same phase-boundary block JobStatus carries.
	Timings *JobTimings `json:"timings,omitempty"`
}

// Terminal reports whether the status will never change again.
func (s JobStatus) Terminal() bool {
	return s.State == JobStateDone || s.State == JobStateFailed || s.State == JobStateCanceled
}

// Matches is the job-control API's filter predicate: empty filter
// fields match everything.
func (s JobStatus) Matches(owner, state string) bool {
	if owner != "" && s.Owner != owner {
		return false
	}
	if state != "" && s.State != state {
		return false
	}
	return true
}

// OwnerUsage is one owner's live aggregate over the job board: how
// many jobs sit in each phase of the pipeline and how many testbed
// hosts the owner's running placements hold. It is the ground truth
// the /v1/owners counters report.
type OwnerUsage struct {
	// Queued counts jobs still in the admission queue.
	Queued int `json:"queued"`
	// InFlight counts scheduling + running jobs.
	InFlight int `json:"in_flight"`
	// HostsHeld sums each dispatched job's distinct placement hosts —
	// host slots, so two jobs sharing a host count it twice; the same
	// conservative accounting the per-owner hosts quota enforces.
	HostsHeld int `json:"hosts_held"`
	// Terminal tallies.
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Total is every job the board retains for the owner.
	Total int `json:"total"`
}

// OwnerStatus is one owner's row in the /v1/owners listing: fair-share
// weight, configured per-owner quota limits (0 = unlimited), and live
// usage.
type OwnerStatus struct {
	Owner  string `json:"owner"`
	Weight int    `json:"weight"`
	// WeightPinned marks a weight set through the owner-admin endpoint:
	// it no longer follows the owner's submissions and survives restarts.
	WeightPinned bool `json:"weight_pinned,omitempty"`
	// Quota limits; zero means unlimited and is omitted from JSON.
	MaxQueued   int        `json:"max_queued,omitempty"`
	MaxInFlight int        `json:"max_in_flight,omitempty"`
	MaxHosts    int        `json:"max_hosts,omitempty"`
	Usage       OwnerUsage `json:"usage"`
	// API request rate limit enforced at the serving mount (token
	// bucket; zero means the mount enforces none) and how many requests
	// of this owner it has answered 429. Filled by the job-control API,
	// not the pipeline.
	RateRPS       float64 `json:"rate_rps,omitempty"`
	RateBurst     int     `json:"rate_burst,omitempty"`
	RateThrottled uint64  `json:"rate_throttled,omitempty"`
}

// OwnerUpdate is a partial owner-admin change (PATCH /v1/owners/{owner}):
// nil fields are left untouched. Weight pins the owner's fair-share
// weight; the Max* fields install a per-owner quota override (0 = that
// cap unlimited).
type OwnerUpdate struct {
	Weight      *int `json:"weight,omitempty"`
	MaxQueued   *int `json:"max_queued,omitempty"`
	MaxInFlight *int `json:"max_in_flight,omitempty"`
	MaxHosts    *int `json:"max_hosts,omitempty"`
}

// Empty reports whether the update changes nothing (a request error on
// the admin surface).
func (u OwnerUpdate) Empty() bool {
	return u.Weight == nil && u.MaxQueued == nil && u.MaxInFlight == nil && u.MaxHosts == nil
}

// JobBoard is the one registry of published job state: every retained
// job's last published status in canonical (SubmittedAt, ID) order, plus
// per-state and per-owner aggregates kept on every write. The pipeline
// writes it; listings, counts, /v1/owners and a finished job's trace
// read it, under one mutex.
type JobBoard struct {
	mu sync.Mutex
	// rows is the canonical order: a new job carries the latest
	// submission time and appends at the tail, retention drops the head.
	rows []*boardRow
	byID map[string]*boardRow
	// counts and usage tally rows by state and by owner, so the counting
	// reads never scan rows; an owner whose last row leaves is deleted.
	counts map[string]int
	usage  map[string]ownerAgg
}

// ownerAgg is one owner's usage counters plus the owner's
// latest-submitted row (it stays so if evicted), whose share weight
// /v1/owners reports once the admission queue pruned the drained owner.
type ownerAgg struct {
	usage  OwnerUsage
	latest *JobStatus
}

// boardRow is one retained job in one allocation: its last published
// status and, once that is terminal, the sealed timings block the status
// points at.
type boardRow struct {
	JobStatus
	timings JobTimings
}

// NewJobBoard returns an empty board.
func NewJobBoard() *JobBoard {
	return &JobBoard{
		byID:   make(map[string]*boardRow),
		counts: make(map[string]int),
		usage:  make(map[string]ownerAgg),
	}
}

// rowBefore is the canonical listing order: submission time, then ID.
func rowBefore(a, b *JobStatus) bool {
	if !a.SubmittedAt.Equal(b.SubmittedAt) {
		return a.SubmittedAt.Before(b.SubmittedAt)
	}
	return a.ID < b.ID
}

// tally returns the counter a state feeds (scheduling, running: InFlight).
func (u *OwnerUsage) tally(state string) *int {
	switch state {
	case JobStateQueued:
		return &u.Queued
	case JobStateScheduling, JobStateRunning:
		return &u.InFlight
	case JobStateDone:
		return &u.Done
	case JobStateFailed:
		return &u.Failed
	case JobStateCanceled:
		return &u.Canceled
	}
	return nil
}

// apply folds one row into (sign=+1) or out of (sign=-1) the
// aggregates. Caller holds b.mu.
func (b *JobBoard) apply(r *JobStatus, sign int) {
	b.counts[r.State] += sign
	if b.counts[r.State] == 0 {
		delete(b.counts, r.State)
	}
	agg := b.usage[r.Owner]
	u := &agg.usage
	if t := u.tally(r.State); t != nil {
		*t += sign
	}
	u.HostsHeld += sign * r.HostsHeld
	u.Total += sign
	if u.Total == 0 {
		delete(b.usage, r.Owner)
		return
	}
	if sign > 0 && (agg.latest == nil || !rowBefore(r, agg.latest)) {
		agg.latest = r
	}
	b.usage[r.Owner] = agg
}

// index returns s's (would-be) position in rows. Caller holds b.mu.
func (b *JobBoard) index(s *JobStatus) int {
	return sort.Search(len(b.rows), func(i int) bool { return !rowBefore(&b.rows[i].JobStatus, s) })
}

// Update records the latest status of a job, inserting it on first
// sight, and returns it as the row holds it. A terminal row is final (a
// late publish that lost a race with it is dropped) and keeps its own
// copy of the sealed timings block.
func (b *JobBoard) Update(s JobStatus) JobStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.byID[s.ID]
	switch {
	case ok && r.Terminal():
		return s
	case ok && r.SubmittedAt.Equal(s.SubmittedAt):
		b.apply(&r.JobStatus, -1) // replaced in place
	default:
		if ok {
			b.remove(b.index(&r.JobStatus)) // the sort key moved: reinsert
		}
		r = &boardRow{JobStatus: s} // not &s: s would escape on the replace path too
		i := len(b.rows)
		if i > 0 && rowBefore(&r.JobStatus, &b.rows[i-1].JobStatus) {
			i = b.index(&r.JobStatus)
		}
		b.rows = slices.Insert(b.rows, i, r)
		b.byID[s.ID] = r
	}
	r.JobStatus = s
	if s.Terminal() && s.Timings != nil {
		// Only a sealed block moves in: a live one is replaced by the next
		// publish while readers may still hold it.
		r.timings = *s.Timings
		r.Timings = &r.timings
	}
	b.apply(&r.JobStatus, +1)
	return r.JobStatus
}

// remove drops rows[i]: a reslice at the head, a move of pointers (not
// rows) anywhere else. Caller holds b.mu.
func (b *JobBoard) remove(i int) {
	r := b.rows[i]
	delete(b.byID, r.ID)
	b.apply(&r.JobStatus, -1)
	if i == 0 {
		b.rows[0] = nil
		b.rows = b.rows[1:]
	} else {
		b.rows = slices.Delete(b.rows, i, i+1)
	}
}

// Delete removes a job from the board. Unknown IDs are a no-op.
func (b *JobBoard) Delete(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r, ok := b.byID[id]; ok {
		b.remove(b.index(&r.JobStatus))
	}
}

// EvictTerminal is retention: while the board holds more than keep rows
// it drops the oldest terminal one, and returns the IDs it dropped.
// Non-terminal rows are never dropped, however old.
func (b *JobBoard) EvictTerminal(keep int) (evicted []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	terminal := b.counts[JobStateDone] + b.counts[JobStateFailed] + b.counts[JobStateCanceled]
	for i := 0; len(b.rows) > keep && terminal > 0; {
		if r := b.rows[i]; r.Terminal() {
			evicted = append(evicted, r.ID)
			b.remove(i)
			terminal--
		} else {
			i++
		}
	}
	return evicted
}

// Get returns the last recorded status of one job.
func (b *JobBoard) Get(id string) (JobStatus, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r, ok := b.byID[id]; ok {
		return r.JobStatus, true
	}
	return JobStatus{}, false
}

// PageAfter returns up to limit rows matching the owner and state
// filters (empty strings match everything) that sort strictly after the
// (afterNanos, afterID) position — zero is the start of the listing —
// and whether more matches follow. The position is a key, not an index:
// rows evicted since the cursor was issued are skipped, never served
// twice. The cost is a binary search plus the rows scanned.
func (b *JobBoard) PageAfter(owner, state string, afterNanos int64, afterID string, limit int) (page []JobStatus, more bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := 0
	if afterNanos != 0 || afterID != "" {
		after := &JobStatus{ID: afterID, SubmittedAt: time.Unix(0, afterNanos)}
		i = sort.Search(len(b.rows), func(i int) bool { return rowBefore(after, &b.rows[i].JobStatus) })
	}
	page = make([]JobStatus, 0, min(limit, len(b.rows)-i))
	for _, r := range b.rows[i:] {
		if r.Matches(owner, state) {
			if len(page) >= limit {
				return page, true
			}
			page = append(page, r.JobStatus)
		}
	}
	return page, false
}

// List returns every job status in canonical order.
func (b *JobBoard) List() []JobStatus { return b.ListFiltered("", "") }

// ListFiltered is List narrowed by the owner and state filters.
func (b *JobBoard) ListFiltered(owner, state string) []JobStatus {
	rows, _ := b.PageAfter(owner, state, 0, "", math.MaxInt)
	return rows
}

// OwnerUsages reports per-phase job counts and held hosts by owner name
// (the anonymous owner is ""): the ground truth behind the /v1/owners
// counters, O(owners) not O(jobs).
func (b *JobBoard) OwnerUsages() map[string]OwnerUsage {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]OwnerUsage, len(b.usage))
	for owner, agg := range b.usage {
		out[owner] = agg.usage
	}
	return out
}

// OwnerWeights reports, per owner with retained rows, the share weight
// of the owner's latest-submitted row: what /v1/owners falls back to
// once the admission queue prunes a fully drained owner.
func (b *JobBoard) OwnerWeights() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.usage))
	for owner, agg := range b.usage {
		out[owner] = agg.latest.ShareWeight
	}
	return out
}

// Counts returns how many jobs sit in each state, keyed by state name.
func (b *JobBoard) Counts() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.counts)
}

// CountFiltered returns how many retained rows match the owner and
// state filters (the limit=0 listing) from the aggregates; only owner
// plus scheduling or running, which share one counter, counts rows.
func (b *JobBoard) CountFiltered(owner, state string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if owner == "" {
		if state == "" {
			return len(b.rows)
		}
		return b.counts[state]
	}
	u := b.usage[owner].usage
	switch state {
	case "":
		return u.Total
	case JobStateScheduling, JobStateRunning:
		n := 0
		for _, r := range b.rows {
			if r.Matches(owner, state) {
				n++
			}
		}
		return n
	}
	if t := u.tally(state); t != nil {
		return *t
	}
	return 0
}

// InFlight returns how many jobs have been admitted but not finished.
func (b *JobBoard) InFlight() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[JobStateQueued] + b.counts[JobStateScheduling] + b.counts[JobStateRunning]
}
