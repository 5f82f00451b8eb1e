package vdce

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/store"
	"vdce/internal/tasklib"
)

// PipelineConfig sizes the concurrent submission pipeline. Zero fields
// take the listed defaults.
type PipelineConfig struct {
	// QueueDepth bounds the admission queue; Submit blocks (up to its
	// context) while the queue is full. Default 64.
	QueueDepth int
	// SchedulerWorkers is how many scheduler workers run core.Scheduler
	// rounds concurrently. Each job carries a home site — round-robin
	// across sites for anonymous submissions, the submitting site for
	// owned ones — so concurrent rounds spread across sites regardless of
	// worker count. Default 4.
	SchedulerWorkers int
	// MaxConcurrentRuns bounds how many applications the execution engine
	// runs simultaneously. Default 2 * SchedulerWorkers.
	MaxConcurrentRuns int
	// MaxRetainedJobs bounds how many jobs the job board remembers; the
	// oldest *terminal* jobs are evicted first, so a long-running server
	// does not grow without bound. Default 1024.
	MaxRetainedJobs int
	// AgingStep is the starvation-protection rate of the priority
	// admission queue: a queued job's effective priority rises by one
	// level per AgingStep of waiting, so a low-priority job eventually
	// overtakes a stream of higher-priority arrivals. Default 30s.
	AgingStep time.Duration
	// Quota bounds each owner's simultaneous use of the pipeline:
	// queued jobs (admission rejects with a QuotaError), in-flight jobs
	// (excess parks in the queue while other owners dispatch past it),
	// and concurrently held hosts (a scheduled job parks before
	// execution). Zero fields are unlimited.
	Quota QuotaConfig
	// EventBuffer sizes the job event broker's ring, which serves
	// Last-Event-ID reconnects and which every stream subscriber reads at
	// its own cursor (one a ring's length behind is evicted, never allowed
	// to block the board). Default jobsapi.DefaultEventBuffer.
	EventBuffer int
	// APIRate is the per-owner token-bucket request rate limit that
	// jobsapi mounts over this environment enforce at the mux (requests
	// over budget answer 429 with Retry-After). The zero value disables
	// rate limiting.
	APIRate jobsapi.RateLimitConfig
	// Shed tunes load shedding at admission: the bound on the wait for
	// a queue slot and the deadline-infeasibility estimate, both surfaced
	// as typed *ShedError (HTTP 503 + Retry-After). The zero value never
	// sheds: a full queue blocks Submit until its context ends.
	Shed ShedConfig
}

// retainedOutputBytes bounds the task outputs finished jobs keep
// readable: past it the oldest results lose their Outputs (see
// retainOutputs). Rows are bounded by MaxRetainedJobs.
const retainedOutputBytes = 64 << 20

func (c *PipelineConfig) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SchedulerWorkers <= 0 {
		c.SchedulerWorkers = 4
	}
	if c.MaxConcurrentRuns <= 0 {
		c.MaxConcurrentRuns = 2 * c.SchedulerWorkers
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 1024
	}
	if c.AgingStep <= 0 {
		c.AgingStep = 30 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = jobsapi.DefaultEventBuffer
	}
	c.Shed.fillDefaults()
}

// pipeline is the multi-tenant submission machinery behind
// Environment.Submit: a bounded priority admission queue with aging, a
// pool of scheduler workers sharded across home sites, and a bounded
// concurrent dispatch path into the shared execution engine.
type pipeline struct {
	env    *Environment
	cfg    PipelineConfig
	ctx    context.Context
	admit  *admitQueue
	slots  chan struct{} // queue-capacity semaphore (cap QueueDepth)
	notify chan struct{} // wakes idle workers after pushes (cap QueueDepth)
	runSem chan struct{}
	// events is the job event broker behind the streaming API: every
	// lifecycle publication and engine recovery event fans out here with
	// a monotonic cursor.
	events *jobsapi.Broker
	// store is the durable control-plane log (nil = in-memory only).
	store *store.Store
	// stopping suppresses persistence of shutdown-induced terminal
	// transitions: jobs failed with ErrPipelineClosed by a graceful stop
	// stay queued/running in the log, exactly what the next boot should
	// re-adopt.
	stopping atomic.Bool
	// recovery reports what the boot replay did (immutable after
	// startPipeline returns).
	recovery RecoveryReport
	// meter is the sliding-window accept/shed counter behind the /readyz
	// shed-rate gate.
	meter *shedMeter
	// recoveryPending counts re-admitted jobs that have not yet reached
	// a scheduler worker (or gone terminal); /readyz reports not-ready
	// while the replay backlog drains.
	recoveryPending atomic.Int64

	workerWG sync.WaitGroup // scheduler workers

	mu       sync.Mutex
	nextID   int
	nextHome int
	// byID holds the record of every live job — what cancel, trace,
	// drain and shutdown act on. terminalize deletes a job's entry once
	// its terminal row is published: a finished job lives on the board
	// alone.
	byID map[string]*jobRecord
	// outs is the output ledger: by job ID, the handles whose results
	// still hold their Outputs; outBytes is their total. outOrder is
	// their IDs oldest completion first; an ID that has left is skipped,
	// and compacted away once outOrder is over twice the ledger's size.
	// retainOutputs and trimRetained are its only writers.
	outs      map[string]outEntry
	outOrder  []string
	outBytes  int64
	outBudget int64 // retainedOutputBytes; tests lower it
	closed    bool
}

// outEntry is one output ledger entry: the handle a result was delivered
// to and the in-memory size of the result's outputs.
type outEntry struct {
	h     weak.Pointer[Job]
	bytes int64
}

// submitSpec is a fully resolved submission (options applied).
type submitSpec struct {
	owner       string
	graph       *afg.Graph
	k           int
	home        int // < 0 picks sites round-robin
	priority    int
	shareWeight int
	deadline    time.Time
	labels      map[string]string
}

// startPipeline launches the worker pool. ctx is the environment's
// lifetime context; cancellation stops the workers and fails queued and
// running jobs. A non-nil st makes the pipeline durable: every
// lifecycle transition appends to it, and the state it recovered at
// Open is replayed — queued jobs back into the admission heaps,
// in-flight jobs re-dispatched, terminal jobs onto the board — before
// any worker runs.
func startPipeline(ctx context.Context, env *Environment, cfg PipelineConfig, st *store.Store) *pipeline {
	cfg.fillDefaults()
	p := &pipeline{
		env:    env,
		cfg:    cfg,
		ctx:    ctx,
		admit:  newAdmitQueue(cfg.AgingStep, cfg.Quota),
		runSem: make(chan struct{}, cfg.MaxConcurrentRuns),
		store:  st,
		byID:   make(map[string]*jobRecord),
		meter:  newShedMeter(),

		outs:      make(map[string]outEntry),
		outBudget: retainedOutputBytes,
	}
	var adopt []*jobRecord
	if st != nil {
		// The broker resumes above the persisted high-water cursor, so
		// every cursor issued before the crash is strictly below every new
		// one and a stale Last-Event-ID resume is detected as a gap (the
		// stream handlers re-synchronize the client) instead of silently
		// replaying the wrong events.
		p.events = jobsapi.NewBrokerAt(cfg.EventBuffer, st.EventCursor(), func(cur uint64) {
			env.storeErr("event-cursor", st.NoteEventCursor(cur), "record", "high-water mark")
		})
		p.events.Instrument(env.Obs)
		adopt = p.loadRecovered(st.Recovered())
	} else {
		p.events = jobsapi.NewBroker(cfg.EventBuffer)
		p.events.Instrument(env.Obs)
	}
	// Queue capacity: the configured depth plus one slot per re-adopted
	// job, so recovery never deadlocks on its own backpressure when the
	// crash left more jobs queued than QueueDepth.
	p.slots = make(chan struct{}, cfg.QueueDepth+len(adopt))
	// One wakeup token per possible queued job: a lost wakeup could
	// otherwise leave a job queued while a worker sleeps. Stale tokens
	// only cost an idle worker one empty pop.
	p.notify = make(chan struct{}, cfg.QueueDepth+len(adopt))
	p.adoptRecovered(adopt)
	for w := 0; w < cfg.SchedulerWorkers; w++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	return p
}

// submit admits a job into the fair-share priority queue. The order is
// fixed: estimate-based shed checks, the owner's queued-jobs quota, the
// queue slot, and only then the job itself — its ID, board row, WAL
// record and first event. A submission that is shed, rejected, or whose
// context ends while the queue is full therefore leaves no residue.
// Shed.MaxSubmitWait bounds the wait for the slot (a typed *ShedError
// after it); 0 leaves the wait bounded by ctx alone.
func (p *pipeline) submit(ctx context.Context, spec submitSpec) (*Job, error) {
	if err := spec.graph.Validate(); err != nil {
		return nil, err
	}
	if spec.home >= len(p.env.Sites) {
		return nil, fmt.Errorf("vdce: no site %d", spec.home)
	}
	if !spec.deadline.IsZero() && !time.Now().Before(spec.deadline) {
		return nil, ErrJobDeadlineExceeded
	}
	if serr := p.preAdmitShed(spec); serr != nil {
		return nil, p.shedSubmission(serr, spec.owner)
	}
	// Claim the owner's queued-jobs quota first: the reservation covers
	// the whole queued phase (including the wait for a queue slot below)
	// and is returned when the job pops, is removed, or dies before
	// reaching the queue.
	if err := p.admit.reserveQueued(spec.owner); err != nil {
		p.env.obsM.rejectQuota.Inc()
		p.env.log.Info("submission rejected", "owner", spec.owner, "reason", "quota")
		return nil, err
	}
	// A nil timeout channel never fires, so an unbounded wait costs no
	// timer; an unfired one is garbage once submit returns (go 1.23+).
	var timeout <-chan time.Time
	if p.cfg.Shed.MaxSubmitWait > 0 {
		timeout = time.After(p.cfg.Shed.MaxSubmitWait)
	}
	var err error
	select {
	case p.slots <- struct{}{}:
	case <-timeout:
		err = p.shedSubmission(p.cfg.Shed.shedError(ShedQueueFull,
			fmt.Sprintf("queue of %d full for %v", p.cfg.QueueDepth, p.cfg.Shed.MaxSubmitWait)), spec.owner)
	case <-ctx.Done():
		err = ctx.Err()
	case <-p.ctx.Done():
		err = ErrPipelineClosed
	}
	if err != nil {
		p.admit.unreserveQueued(spec.owner)
		return nil, err
	}
	job := &jobRecord{
		Owner:       spec.owner,
		Graph:       spec.graph,
		K:           spec.k,
		Labels:      spec.labels,
		priority:    spec.priority,
		shareWeight: spec.shareWeight,
		deadline:    spec.deadline,
		pipe:        p,
		done:        make(chan struct{}),
		state:       JobQueued,
		phases:      1 << phSubmitted,
	}
	h := &Job{jobRecord: job}
	job.handle = weak.Make(h)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.releaseSlot()
		p.admit.unreserveQueued(spec.owner)
		return nil, ErrPipelineClosed
	}
	if spec.home < 0 {
		spec.home = p.nextHome
		p.nextHome = (p.nextHome + 1) % len(p.env.Sites)
	}
	job.home = spec.home
	p.nextID++
	var id [24]byte
	job.ID = string(strconv.AppendInt(append(id[:0], "job-"...), int64(p.nextID), 10))
	// Stamp the submission time and publish the job's first row under
	// p.mu: two concurrent submits cannot observe inverted clocks, so
	// rows reach the board in its canonical (submitted, ID) order and
	// append at the tail — only timestamp ties (where string ID order,
	// e.g. "job-10" < "job-9", can disagree with assignment order) land
	// one row earlier. The record enters the index in the same critical
	// section, so every job the index holds has a row.
	job.timings.SubmittedAt = time.Now()
	p.begin(job)
	p.byID[job.ID] = job
	status := job.Status()
	p.env.Board.Update(status)
	evicted := p.trimRetained()
	p.mu.Unlock()
	p.persistSubmitted(job)
	if p.store != nil {
		// Deletion records keep the durable log's mirror bounded by the
		// same retention policy as the board.
		for _, id := range evicted {
			p.env.storeErr("job-deleted", p.store.JobDeleted(id), "job_id", id)
		}
	}
	p.events.Publish(jobsapi.EventState, status)
	now := time.Now()
	wait := job.stampPhase(phAdmitted, now)
	p.enqueue(job, false)
	p.meter.record(now, false)
	p.env.obsM.submitWait.Observe(wait.Seconds())
	p.env.obsM.accepted.Inc()
	p.env.log.LogAttrs(ctx, slog.LevelDebug, "job admitted", slog.String("job_id", job.ID), slog.String("owner", job.Owner))
	p.wake()
	return h, nil
}

// begin gives a registered job its one context: the environment's, with
// the job's deadline when it has one. Cancel, the deadline and shutdown
// all end the job through it, and end reads which one did from its
// cause. This is the only place the pipeline makes a context.
func (p *pipeline) begin(j *jobRecord) {
	ctx, cancel := context.WithCancelCause(p.ctx)
	if !j.deadline.IsZero() {
		// Canceling the parent already stops the deadline's timer; the
		// job's cancel calls both so no CancelFunc is dropped.
		var stopTimer context.CancelFunc
		ctx, stopTimer = context.WithDeadlineCause(ctx, j.deadline, ErrJobDeadlineExceeded)
		withCause := cancel
		cancel = func(cause error) {
			withCause(cause)
			stopTimer()
		}
	}
	j.ctx, j.cancel = ctx, cancel
}

// enqueue pushes a job onto the admission queue — a recovered one
// without the queued-jobs quota (see adoptQueued) — and marks it queued,
// both under j.mu, so a worker that pops the job finds the mark. Only a
// job with a deadline arms a hook that drops it when its context ends.
func (p *pipeline) enqueue(j *jobRecord, recovered bool) {
	j.mu.Lock()
	if recovered {
		p.admit.adoptQueued(j)
	} else {
		p.admit.push(j)
	}
	j.queued = true
	if !j.deadline.IsZero() {
		j.stop = context.AfterFunc(j.ctx, func() { p.drop(j) })
	}
	j.mu.Unlock()
	p.drop(j) // a Cancel or shutdown before the mark found nothing to drop
}

// drop ends a queued job whose context ended: the job leaves the
// admission queue if it is still in it, its slot frees, and end
// terminalizes it. Whatever ends a job's context calls it — Cancel
// synchronously, the deadline hook, stop — so a queued job is terminal
// when the call returns. A job the claim took is left to the waits that
// carry its context.
func (p *pipeline) drop(j *jobRecord) {
	j.mu.Lock()
	ctx, took := j.ctx, j.queued && j.ctx.Err() != nil
	j.queued = j.queued && !took
	j.mu.Unlock()
	if !took {
		return
	}
	if p.admit.remove(j) {
		p.releaseSlot()
	}
	j.end(ctx, nil)
}

// trimRetained is count retention: the board evicts its oldest terminal
// rows past MaxRetainedJobs, and each evicted job leaves the output
// ledger (a client still holding the handle keeps its result). Entries
// are found by job ID, never through their handles: reading a weak
// handle while the GC marks keeps its target alive for that cycle, and
// reading every entry on each completion would keep every job finished
// since the last cycle, so the heap would grow with the GC period.
// Caller holds p.mu.
func (p *pipeline) trimRetained() []string {
	evicted := p.env.Board.EvictTerminal(p.cfg.MaxRetainedJobs)
	for _, id := range evicted {
		if e, ok := p.outs[id]; ok {
			delete(p.outs, id)
			p.outBytes -= e.bytes
		}
	}
	if len(p.outOrder) > 2*len(p.outs)+64 {
		p.outOrder = slices.DeleteFunc(p.outOrder, func(id string) bool {
			_, ok := p.outs[id]
			return !ok
		})
	}
	return evicted
}

// retainOutputs is byte retention: a result delivered to a live handle
// enters the output ledger with the in-memory size of its outputs, and
// the oldest holders lose theirs until the total fits the budget — never
// the newest. A dropped result is replaced on its live handle by a copy
// without Outputs: a client that fetched the old pointer keeps what it
// read; a handle dropped since took its outputs along, but its entry
// counts until it leaves. terminalize calls this before the terminal
// status publishes, so count retention cannot evict the job before it is
// in the ledger.
func (p *pipeline) retainOutputs(id string, h weak.Pointer[Job], res *exec.Result) {
	var size int64
	for _, outs := range res.Outputs {
		for _, v := range outs {
			size += int64(tasklib.ValueSize(v))
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outs[id] = outEntry{h, size}
	p.outOrder = append(p.outOrder, id)
	p.outBytes += size
	for p.outBytes > p.outBudget && len(p.outs) > 1 {
		oldest := p.outOrder[0]
		p.outOrder = p.outOrder[1:]
		old, ok := p.outs[oldest]
		if !ok {
			continue // evicted by count since
		}
		delete(p.outs, oldest)
		p.outBytes -= old.bytes
		if h := old.h.Value(); h != nil {
			kept := *h.result.Load()
			kept.Outputs, kept.OutputsEvicted = nil, true
			h.result.Store(&kept)
		}
		p.env.obsM.outputsEvicted.Inc()
	}
}

// releaseSlot returns one unit of queue capacity after a job leaves the
// admission queue (popped by a worker or removed by Cancel).
func (p *pipeline) releaseSlot() { <-p.slots }

// shedSubmission records one shed in the readiness meter, the
// per-reason counter and the structured log, and returns it as the
// submission's error.
func (p *pipeline) shedSubmission(serr *ShedError, owner string) error {
	p.meter.record(time.Now(), true)
	switch m := p.env.obsM; serr.Reason {
	case ShedQueueFull:
		m.rejectQueueFull.Inc()
	case ShedDeadlineInfeasible:
		m.rejectDeadline.Inc()
	case ShedStoreUnavailable:
		m.rejectStore.Inc()
	}
	p.env.log.Info("submission shed", "owner", owner, "reason", serr.Reason)
	return serr
}

// worker pops one fairly-arbitrated job at a time from the admission
// queue and runs its scheduling round from the job's home site. Popping
// only when it is ready to run the round keeps WFQ order late-bound: a
// job submitted meanwhile competes for the next pop on equal terms, and
// a popped job waits in no buffer. The job's queue-capacity slot frees
// when its round starts. A worker sleeps only after a pop found nothing
// eligible, so one wakeup token per push (or freed quota) is enough.
func (p *pipeline) worker() {
	defer p.workerWG.Done()
	var costs []float64 // the scheduling rounds' task costs, reused
	for {
		select {
		case <-p.ctx.Done():
			return
		default:
		}
		job := p.admit.pop()
		if job == nil {
			select {
			case <-p.ctx.Done():
				return
			case <-p.notify:
			}
			continue
		}
		p.releaseSlot()
		p.process(job, &costs)
	}
}

// process runs one job's scheduling round and dispatches its execution.
// The scheduling phase completes on the worker; execution is handed to
// a goroutine gated by the run semaphore so the worker can keep
// scheduling while earlier jobs still execute. costs is the worker's
// buffer for the round's task costs.
func (p *pipeline) process(job *jobRecord, costs *[]float64) {
	ctx, ok := job.claim()
	if !ok {
		return // its context ended while it was queued: its drop ends it
	}
	var err error
	if *costs, err = p.env.taskCosts(job.Graph, *costs); err != nil {
		job.fail(err)
		return
	}
	sched := core.Scheduler{Local: p.env.Sites[job.home], Remote: p.env.peers[job.home], Net: p.env.Net, K: job.K}
	roundStart := time.Now()
	table, err := sched.Schedule(job.Graph, func(id afg.TaskID) float64 { return (*costs)[id] })
	p.env.obsM.roundLatency.Observe(time.Since(roundStart).Seconds())
	if err != nil {
		job.fail(err)
		return
	}
	job.setTable(table)
	if wait := job.stampPhase(phScheduled, time.Now()); wait > 0 {
		p.env.obsM.phaseQueueWait.Observe(wait.Seconds())
	}

	// Held-hosts quota: charge the placement's distinct hosts against
	// the owner. An owner at its cap does not hold the worker hostage —
	// the job parks in its own goroutine (other owners keep dispatching
	// through this worker) until enough of the owner's hosts free.
	needed := make([]string, 0, len(table.Entries))
	for _, e := range table.Entries {
		needed = append(needed, e.Hosts...)
	}
	ok, grew := p.admit.holdHosts(job, needed)
	if !ok {
		// Gate the owner before parking: pop skips owners with a parked
		// job, so park goroutines per owner are bounded by the worker
		// count (concurrent workers may each park one job they popped
		// before the gate landed) and the rest of the owner's backlog
		// waits in the queue — scheduled against fresh resource state
		// when its turn comes.
		p.admit.setParked(job, true)
		job.stampEvent("host-park")
		p.env.obsM.hostParks.Inc()
		p.env.log.Debug("job parked on held-hosts quota", "job_id", job.ID, "owner", job.Owner)
		go p.parkForHosts(ctx, job, table, needed)
		return
	}
	if grew {
		job.publishHeld()
	}
	p.dispatch(ctx, job, table)
}

// dispatch hands a scheduled job to its execution goroutine once a run
// slot frees. Called on a scheduler worker in the common case — that
// is deliberate backpressure: with the engine saturated, workers park
// here, the admission queue fills, and Submit blocks — so the total
// number of admitted-but-unfinished jobs stays bounded by QueueDepth +
// SchedulerWorkers + MaxConcurrentRuns, plus hosts-parked jobs (the
// pop-side parked gate bounds those per owner by the worker count). A
// job waiting for a slot remains in the scheduling state (it is still
// in a worker's hands) until its context ends, which frees the worker.
// Jobs resuming from a hosts-quota park call this off-worker instead.
func (p *pipeline) dispatch(ctx context.Context, job *jobRecord, table *core.AllocationTable) {
	select {
	case p.runSem <- struct{}{}:
	default: // only a wait for a slot makes the context's Done channel
		select {
		case p.runSem <- struct{}{}:
		case <-ctx.Done():
			job.end(ctx, nil)
			return
		}
	}
	go p.execute(ctx, job, table)
}

// parkForHosts waits until the job's owner frees enough held hosts for
// this placement, then dispatches it. The park lives off-worker so a
// capped owner's excess never blocks other owners' dispatch (and is
// bounded per owner by the pop-side parked gate); it ends early when
// the job's context does. Terminal exits leave the parked gate to
// release(); the success path clears it and wakes a worker, since the
// owner just became poppable again.
func (p *pipeline) parkForHosts(ctx context.Context, job *jobRecord, table *core.AllocationTable, needed []string) {
	for {
		// Fetch the owner's broadcast channel before re-checking, so a
		// release landing between the check and the wait still wakes us.
		// The channel is per owner: other owners' terminal jobs cannot
		// wake this park.
		changed := p.admit.usageChanged(job.Owner)
		if ok, grew := p.admit.holdHosts(job, needed); ok {
			p.admit.setParked(job, false)
			p.wake()
			job.stampEvent("host-unpark")
			if grew {
				job.publishHeld()
			}
			p.dispatch(ctx, job, table)
			return
		}
		select {
		case <-changed:
		case <-ctx.Done():
			job.end(ctx, nil)
			return
		}
	}
}

// wake hands one wakeup token to an idle scheduler worker.
func (p *pipeline) wake() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// jobReleased returns a terminal job's quota charges and, when
// anything freed, wakes an idle worker — a parked owner may have just
// dropped below its in-flight cap.
func (p *pipeline) jobReleased(j *jobRecord) {
	if p.admit.release(j) {
		p.wake()
	}
}

// execute runs the job's task graph under the job's context, then
// terminalizes it.
func (p *pipeline) execute(ctx context.Context, job *jobRecord, table *core.AllocationTable) {
	defer func() { <-p.runSem }()
	if wait := job.stampPhase(phDispatched, time.Now()); wait > 0 {
		p.env.obsM.phaseDispatchWait.Observe(wait.Seconds())
	}
	if ctx.Err() != nil {
		job.end(ctx, nil)
		return
	}
	job.markRunning(time.Now())
	res, err := p.env.Engine.Execute(ctx, job.Graph, table, exec.WithEventSink(job.execEvent))
	switch {
	case err == nil:
		// The run may have rescheduled tasks mid-flight: adopt the
		// patched table so Table() reports where tasks actually ran.
		if res.Table != nil {
			job.setTable(res.Table)
		}
		job.complete(res)
	case ctx.Err() != nil:
		job.end(ctx, err)
	default:
		job.fail(err)
	}
}

// stop ends every live job through the environment's context, drops the
// queued ones, and waits until each is terminal. cancelRoot cancels that
// context.
func (p *pipeline) stop(cancelRoot context.CancelCauseFunc) {
	// Durability first: from here on, shutdown-induced terminal states
	// (ErrPipelineClosed) are not persisted — queued and running jobs
	// remain recoverable in the log, which is what the next boot
	// re-adopts.
	p.stopping.Store(true)
	// Refuse new admissions: every job registered before this point is
	// one of the records waited on below, and its context ends with the
	// environment's.
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	cancelRoot(ErrPipelineClosed)
	p.workerWG.Wait()
	for _, j := range p.records() {
		p.drop(j)
		<-j.done
	}
}

// job returns a live job's record by ID.
func (p *pipeline) job(id string) (*jobRecord, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.byID[id]
	return j, ok
}

// records returns every live job's record, in no particular order.
func (p *pipeline) records() []*jobRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*jobRecord, 0, len(p.byID))
	for _, j := range p.byID {
		out = append(out, j)
	}
	return out
}

// Submit admits an application into the environment's concurrent
// submission pipeline and returns its Job handle immediately. The
// options carry the submission's owner, priority, deadline, home site,
// neighbor-site count, and labels; the zero configuration is an
// anonymous, priority-0, home-site-only submission with round-robin home
// sites. Jobs dequeue by effective priority — the base priority aged
// upward while the job waits, so no submission starves — and are
// executed on the shared testbed; use Job.Wait or Job.Done to observe
// completion and Job.Cancel to abort. Submit blocks only while the
// bounded admission queue is full (backpressure), honoring ctx.
func (env *Environment) Submit(ctx context.Context, g *afg.Graph, opts ...SubmitOption) (*Job, error) {
	spec := submitSpec{graph: g, home: -1, shareWeight: 1}
	var setPriority, setWeight bool
	for _, opt := range opts {
		switch opt.set {
		case optOwner:
			spec.owner = opt.owner
		case optPriority:
			spec.priority, setPriority = opt.n, true
		case optShareWeight:
			spec.shareWeight, setWeight = opt.n, true
		case optDeadline:
			spec.deadline = opt.at
		case optHome:
			spec.home = opt.n
		case optMaxHosts:
			spec.k = opt.n
		case optLabels:
			if spec.labels == nil {
				spec.labels = make(map[string]string, len(opt.labels))
			}
			maps.Copy(spec.labels, opt.labels)
		}
	}
	if spec.owner != "" {
		if spec.home < 0 {
			spec.home = 0 // the accounts site
		}
		spec.k = env.ClampK(spec.owner, spec.k)
		// Unless given, the priority and the fair-share weight are the
		// owner's user-account priority (the paper's per-user resource
		// entitlement).
		if acct, err := env.Sites[0].Repo.Users.Lookup(spec.owner); err == nil {
			if !setPriority {
				spec.priority = acct.Priority
			}
			if !setWeight {
				spec.shareWeight = acct.Priority
			}
		}
	}
	// Saturated into [1, MaxShareWeight], so every owner progresses and
	// no caller can buy an unbounded share.
	spec.shareWeight = clampShareWeight(spec.shareWeight)
	return env.pipe.submit(ctx, spec)
}
