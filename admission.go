package vdce

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// QuotaConfig bounds each owner's simultaneous use of the submission
// pipeline. Zero fields are unlimited. Quotas are per owner name; the
// anonymous owner "" is one owner like any other.
type QuotaConfig struct {
	// MaxQueuedPerOwner caps how many of one owner's jobs may sit in the
	// admission queue (including submitters still blocked on queue
	// backpressure). Admission over the cap fails immediately with a
	// QuotaError — the caller is told to back off rather than silently
	// deepening the backlog.
	MaxQueuedPerOwner int
	// MaxInFlightPerOwner caps how many of one owner's jobs may be
	// scheduling or running at once. Jobs over the cap are not rejected:
	// they park in the admission queue — other owners' jobs dispatch
	// past them — until the owner drops below the cap. Pair it with
	// MaxQueuedPerOwner: parked jobs still occupy shared QueueDepth
	// slots, so without a queued cap one throttled owner's backlog can
	// fill the queue and stall every owner's Submit on backpressure.
	MaxInFlightPerOwner int
	// MaxHostsPerOwner caps an owner's concurrently held host slots:
	// each dispatched job charges one slot per distinct host of its own
	// placement (plus replacement hosts it reschedules onto mid-run),
	// so two jobs sharing a host charge it twice — the accounting an
	// owner's per-job hosts_held counters sum to, deliberately
	// conservative on the small overlapping testbeds this models. A
	// scheduled job that would exceed the cap parks (off-worker, so it
	// never blocks other owners' dispatch) until enough of the owner's
	// slots free up. A single job needing more slots than the cap is
	// admitted alone, once the owner holds nothing — an over-sized job
	// parks, it does not deadlock.
	MaxHostsPerOwner int
}

// ErrQuotaExceeded is the sentinel matched (via errors.Is) by every
// per-owner quota rejection.
var ErrQuotaExceeded = errors.New("vdce: owner quota exceeded")

// QuotaError is the typed admission rejection: which owner hit which
// per-owner cap, and where usage stood. It matches ErrQuotaExceeded
// with errors.Is.
type QuotaError struct {
	// Owner is the job's owner ("" for anonymous submissions).
	Owner string
	// Resource names the exhausted cap: "queued-jobs", "in-flight-jobs",
	// or "hosts".
	Resource string
	// Limit is the configured cap; Used is the owner's usage at the
	// rejection.
	Limit int
	Used  int
}

func (e *QuotaError) Error() string {
	owner := e.Owner
	if owner == "" {
		owner = "(anonymous)"
	}
	return fmt.Sprintf("vdce: owner %s over %s quota (%d of %d in use)",
		owner, e.Resource, e.Used, e.Limit)
}

// Is makes errors.Is(err, ErrQuotaExceeded) match every QuotaError.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// admitQueue is the pipeline's admission queue: weighted fair queuing
// across owners over per-owner priority sub-queues.
//
// Within one owner, jobs order exactly as the PR 2 aging heap did: a
// max-heap over (effective priority, enqueue time) where a queued job's
// effective priority rises by one level per AgingStep of waiting.
// Because every queued job ages at the same rate, the pairwise order of
// two jobs never changes over time, so the heap key is computed once at
// enqueue:
//
//	rank = base * step - enqueuedNanos
//
// Higher rank pops first; saturated ranks fall back to FIFO seq order.
//
// Across owners, pops are arbitrated by smoothed virtual-time fair
// queuing: each owner carries a weight w and a virtual finish time. A
// pop charges the chosen owner 1/w of virtual time, and the next pop
// goes to the eligible owner with the smallest charge point
// max(ownerVFinish, queueVTime) — so over a backlogged interval each
// owner's dispatch share converges to w/Σw, and one owner's flood can
// no longer starve the rest regardless of its jobs' priorities. The
// max() against the queue-wide virtual clock is the smoothing: an owner
// returning from idle resumes at "now" instead of burning banked
// credit, and a saturated owner cannot run up debt that would silence
// it later.
//
// Arbitration is O(log owners) per pop via the eligible-owner index:
// the smoothing max() splits eligible owners into exactly two groups —
// owners at or behind the queue clock (vfinish <= vtime), whose charge
// points all equal vtime and therefore tie, resolved by name; and
// owners ahead of the clock (vfinish > vtime), whose charge points are
// their own finish times. The index keeps the first group in a min-heap
// by name (q.lagged) and the second in a min-heap by (vfinish, name)
// (q.ahead); the lagged top always beats every ahead owner, so the
// winner is one peek. vtime only ever advances, so ahead owners it
// overtakes migrate to lagged at most once per pop they earned —
// amortized O(log owners). The linear scan it replaced is kept in
// admission_linear_test.go as the reference the property suite and the
// 10k-owner bench compare against.
//
// The queue also carries the per-owner quota ledger (queued
// reservations, in-flight jobs, held hosts): eligibility for a pop
// requires the owner to be under its in-flight cap, which is how
// capped owners' jobs park in place while other owners dispatch past
// them.
//
// Every heap here is one slotHeap: the two halves of the eligible-owner
// index and each owner's backlog. Its members record their own slot
// (ownerShare.hidx, jobRecord.queue), so cancel and the position probe
// find a queued job from its record, with no side index to keep current.
type admitQueue struct {
	mu    sync.Mutex
	step  time.Duration
	quota QuotaConfig
	seq   uint64
	vtime float64 // queue-wide virtual clock: charge point of the last pop
	// owners holds every owner with live queue state: backlog, quota
	// reservations, in-flight charges, or admin pins. Shares that drain
	// to nothing are pruned (see maybePruneLocked), so churning one-shot
	// owners do not grow the map, the position replay, or /v1/owners
	// without bound.
	owners map[string]*ownerShare
	// lagged/ahead: the eligible-owner index (see the type comment),
	// ordered by name and by (vfinish, name).
	lagged slotHeap[*ownerShare]
	ahead  slotHeap[*ownerShare]
	// queued is the total backlog across owners, so depth gauges do not
	// iterate the owner map.
	queued int
	// prunes counts owner shares retired by maybePruneLocked (metrics).
	prunes uint64
	// gen counts the mutations that can change the arbitration replay's
	// output — push (new job, possible weight change), pop (backlog and
	// virtual clocks move), remove (backlog shrinks). posCache memoizes
	// the last full position replay and is valid while posGen == gen, so
	// a burst of Status()/listing calls over an unchanged queue pays
	// for one replay, not one per call.
	gen      uint64
	posGen   uint64
	posCache map[string]int
}

// ownerShare is one owner's sub-queue plus its fair-share and quota
// state. All fields are guarded by admitQueue.mu.
type ownerShare struct {
	name string
	jobs slotHeap[*jobRecord] // backlog, a heap under queuedBefore
	// weight is the owner's fair-share weight (>= 1); the latest
	// submitted job's resolved weight wins.
	weight int
	// vfinish is the owner's virtual finish time: the charge point of
	// its last pop plus 1/weight.
	vfinish float64
	// hidx is the owner's slot in whichever eligible-owner heap holds
	// it; stale while it is in neither.
	hidx int
	// reserved counts the owner's queued jobs, from admission-quota
	// reservation (before the submitter even waits for a queue slot)
	// until pop or removal.
	reserved int
	// inFlight counts the owner's scheduling+running jobs (charged at
	// pop, released when the job terminalizes).
	inFlight int
	// hostsHeld sums the held sets of the owner's dispatched jobs
	// (jobRecord.heldHosts), so a host two of its jobs hold counts twice.
	hostsHeld int
	// parked counts the owner's jobs parked on the held-hosts cap.
	// While any is parked the owner is ineligible for pops, so parked
	// dispatch goroutines are bounded per owner by the scheduler's
	// worker count (each worker that popped before the first park landed
	// can add one) — a capped owner's backlog waits in the queue, not in
	// a growing pile of goroutines holding stale placements.
	parked int
	// changed is this owner's usage broadcast: closed (and lazily
	// remade) when the owner's in-flight or held-host usage frees or
	// its caps change, waking only this owner's parked dispatches —
	// terminal jobs elsewhere no longer thunder through every parked
	// goroutine in the system.
	changed chan struct{}
	// pinned marks a weight set by the owner-admin endpoint: submissions
	// no longer override it (normally the latest job's resolved share
	// weight wins).
	pinned bool
	// caps, when non-nil, replaces the queue-wide QuotaConfig for this
	// owner — the admin endpoint's per-owner quota override.
	caps *QuotaConfig
}

func (os *ownerShare) heapSlot() *int { return &os.hidx }

// byName orders the lagged group: every member charges at the queue
// clock, so only the tie-break matters.
func byName(a, b *ownerShare) bool { return a.name < b.name }

// byFinish orders the ahead group by charge point, then name.
func byFinish(a, b *ownerShare) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.name < b.name
}

// queueSlot is a queued job's place in its owner's backlog: the heap key
// push computes once (see rank) and the job's heap index. Guarded by
// admitQueue.mu, and stale once the job leaves the queue.
type queueSlot struct {
	rank int64
	seq  uint64 // FIFO tie-break for identical ranks
	idx  int
}

func (j *jobRecord) heapSlot() *int { return &j.queue.idx }

// queuedBefore reports whether a dequeues ahead of b within one owner.
func queuedBefore(a, b *jobRecord) bool {
	if a.queue.rank != b.queue.rank {
		return a.queue.rank > b.queue.rank
	}
	return a.queue.seq < b.queue.seq
}

// slotted is what a slotHeap holds: a pointer that records its own index
// in the heap.
type slotted interface {
	comparable
	heapSlot() *int
}

// slotHeap is a binary min-heap under less whose members record their
// own slot, so removing any member is O(log n) and membership is an
// identity check at the recorded slot — a slot left stale when its
// member departed names another element or none, never a false match.
// Hand-rolled over a slice (no container/heap) so push and pop box
// nothing.
type slotHeap[E slotted] struct {
	items []E
	less  func(a, b E) bool
}

// has reports whether e is in the heap.
func (h *slotHeap[E]) has(e E) bool {
	i := *e.heapSlot()
	return i >= 0 && i < len(h.items) && h.items[i] == e
}

func (h *slotHeap[E]) push(e E) {
	h.items = append(h.items, e)
	h.up(len(h.items) - 1)
}

// pop removes and returns the minimum; the heap must not be empty.
func (h *slotHeap[E]) pop() E {
	e := h.items[0]
	h.remove(e)
	return e
}

// remove deletes e, reporting whether it was in the heap.
func (h *slotHeap[E]) remove(e E) bool {
	if !h.has(e) {
		return false
	}
	i, last := *e.heapSlot(), len(h.items)-1
	h.items[i] = h.items[last]
	var zero E
	h.items[last] = zero // release the reference
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	return true
}

// set places e at slot i and records the slot on e.
func (h *slotHeap[E]) set(i int, e E) {
	h.items[i] = e
	*e.heapSlot() = i
}

func (h *slotHeap[E]) up(i int) {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(e, h.items[parent]) {
			break
		}
		h.set(i, h.items[parent])
		i = parent
	}
	h.set(i, e)
}

func (h *slotHeap[E]) down(i int) {
	e, n := h.items[i], len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.less(h.items[r], h.items[child]) {
			child = r
		}
		if !h.less(h.items[child], e) {
			break
		}
		h.set(i, h.items[child])
		i = child
	}
	h.set(i, e)
}

func newAdmitQueue(step time.Duration, quota QuotaConfig) *admitQueue {
	return &admitQueue{
		step:   step,
		quota:  quota,
		owners: make(map[string]*ownerShare),
		lagged: slotHeap[*ownerShare]{less: byName},
		ahead:  slotHeap[*ownerShare]{less: byFinish},
	}
}

// owner returns (creating if needed) the owner's share record. Caller
// holds q.mu.
func (q *admitQueue) owner(name string) *ownerShare {
	os, ok := q.owners[name]
	if !ok {
		os = &ownerShare{name: name, weight: 1, jobs: slotHeap[*jobRecord]{less: queuedBefore}}
		q.owners[name] = os
	}
	return os
}

// reindexLocked places an owner in, moves it within, or drops it from
// the eligible-owner index to match its current eligibility and charge
// point. Call after any mutation that can change either: backlog size,
// in-flight count, parked count, caps, or vfinish. Caller holds q.mu.
func (q *admitQueue) reindexLocked(os *ownerShare) {
	q.detachLocked(os)
	if !q.eligible(os) {
		return
	}
	if os.vfinish <= q.vtime {
		q.lagged.push(os)
	} else {
		q.ahead.push(os)
	}
}

// detachLocked removes an owner from whichever index heap holds it.
// Caller holds q.mu.
func (q *admitQueue) detachLocked(os *ownerShare) {
	if !q.lagged.remove(os) {
		q.ahead.remove(os)
	}
}

// migrateLocked moves ahead-group owners the advancing queue clock has
// overtaken into the lagged group, restoring the index invariant that
// every eligible owner with vfinish <= vtime sits in q.lagged. Each
// migration is paid for by the pop that advanced the clock past the
// owner, so the amortized cost stays O(log owners). Caller holds q.mu.
func (q *admitQueue) migrateLocked() {
	for len(q.ahead.items) > 0 && q.ahead.items[0].vfinish <= q.vtime {
		q.lagged.push(q.ahead.pop())
	}
}

// maybePruneLocked retires an owner share that holds no state at all —
// no backlog, reservations, in-flight or host charges, parks, and no
// admin pin or quota override — so churning one-shot owners leave the
// queue at steady-state size. A pruned owner that returns resumes at
// the queue clock, which the smoothing max() already guarantees for
// any idle owner; the only forgotten state is at most one pop's 1/w of
// un-elapsed virtual debt, which an owner can only shed by fully
// draining first. Caller holds q.mu.
func (q *admitQueue) maybePruneLocked(os *ownerShare) {
	if len(os.jobs.items) != 0 || os.reserved != 0 || os.inFlight != 0 || os.hostsHeld != 0 ||
		os.parked != 0 || os.pinned || os.caps != nil {
		return
	}
	q.detachLocked(os)
	delete(q.owners, os.name)
	q.prunes++
}

// rank computes the static within-owner heap key for a job admitted at
// enqueued. The priority boost saturates at ±2^61 so an absurd
// caller-supplied priority (the HTTP field is an arbitrary int) cannot
// overflow the product and invert the queue order; saturated jobs rank
// equal and fall back to FIFO via the seq tie-break.
func (q *admitQueue) rank(priority int, enqueued time.Time) int64 {
	const maxBoost = int64(1) << 61 // |boost| + |UnixNano| stays well inside int64
	limit := maxBoost / int64(q.step)
	p := int64(priority)
	if p > limit {
		p = limit
	} else if p < -limit {
		p = -limit
	}
	return p*int64(q.step) - enqueued.UnixNano()
}

// reserveQueued claims one unit of the owner's queued-jobs quota before
// the job enters the admission path, so a flooding owner is rejected
// with a typed error instead of invisibly consuming shared queue
// capacity. The reservation is consumed by push and released by pop,
// remove, or unreserveQueued (for submissions that die before push).
func (q *admitQueue) reserveQueued(owner string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(owner)
	if cap := q.capsFor(os).MaxQueuedPerOwner; cap > 0 && os.reserved >= cap {
		q.maybePruneLocked(os) // a rejected first contact must not leave a share behind
		return &QuotaError{Owner: owner, Resource: "queued-jobs", Limit: cap, Used: os.reserved}
	}
	os.reserved++
	return nil
}

// adoptQueued re-enqueues a job recovered from the durable store: a
// reservation that bypasses the queued-jobs cap, then push — the
// job was already admitted in the previous incarnation, and rejecting
// it now would silently drop accepted work.
func (q *admitQueue) adoptQueued(j *jobRecord) {
	q.mu.Lock()
	q.owner(j.Owner).reserved++
	q.mu.Unlock()
	q.push(j)
}

// unreserveQueued returns a reservation for a submission that never
// reached push (shed or abandoned while waiting for a queue slot, or
// canceled before it was enqueued).
func (q *admitQueue) unreserveQueued(owner string) {
	q.mu.Lock()
	os := q.owner(owner)
	os.reserved--
	q.maybePruneLocked(os)
	q.mu.Unlock()
}

// push enqueues a job under its owner's sub-queue, consuming the
// reservation made by reserveQueued. The job's resolved share weight
// becomes the owner's weight (latest submission wins), saturated at
// MaxShareWeight — the weight is client-settable over HTTP, so like
// the rank() priority clamp this bounds what a hostile value can buy.
func (q *admitQueue) push(j *jobRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(j.Owner)
	q.seq++
	q.gen++
	if j.shareWeight >= 1 && !os.pinned {
		os.weight = clampShareWeight(j.shareWeight)
	}
	j.queue = queueSlot{rank: q.rank(j.priority, j.timings.SubmittedAt), seq: q.seq}
	os.jobs.push(j)
	q.queued++
	q.reindexLocked(os)
}

// capsFor returns the quota caps that govern an owner: its admin
// override when one is set, the queue-wide config otherwise. Caller
// holds q.mu.
func (q *admitQueue) capsFor(os *ownerShare) QuotaConfig {
	if os.caps != nil {
		return *os.caps
	}
	return q.quota
}

// eligible reports whether the owner may dispatch another job: it has
// queued work, is under its in-flight cap, and has no job already
// parked on the held-hosts cap (popping another would only grow the
// parked pile with a placement that goes stale while it waits).
// Caller holds q.mu.
func (q *admitQueue) eligible(os *ownerShare) bool {
	if len(os.jobs.items) == 0 {
		return false
	}
	if cap := q.capsFor(os).MaxInFlightPerOwner; cap > 0 && os.inFlight >= cap {
		return false
	}
	if os.parked > 0 {
		return false
	}
	return true
}

// setParked marks or clears a job's held-hosts park, gating the
// owner's eligibility for further pops. Idempotent per job.
func (q *admitQueue) setParked(j *jobRecord, parked bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j.hostParked == parked {
		return
	}
	j.hostParked = parked
	os := q.owner(j.Owner)
	if parked {
		os.parked++
	} else {
		os.parked--
	}
	q.reindexLocked(os)
}

// The WFQ arbitration primitives, shared by pop (pickOwnerLocked), the
// linear reference arbiter of the tests, and the position replay so the
// three can never drift apart (pinned against each other by
// TestAdmitPositionPredictsPopOrder and the indexed-vs-linear
// equivalence suite).

// chargePoint is the virtual time at which an owner's next pop is
// charged: its own finish time, smoothed forward to the queue clock
// when it returns from idle.
func chargePoint(vfinish, vtime float64) float64 {
	if vtime > vfinish {
		return vtime
	}
	return vfinish
}

// wfqWins reports whether a candidate (charge, name) beats the
// incumbent: smaller charge point first, owner name as the
// deterministic tie-break.
func wfqWins(charge float64, name string, incCharge float64, incName string) bool {
	return charge < incCharge || (charge == incCharge && name < incName)
}

// wfqCost is the virtual-time cost one pop charges an owner.
func wfqCost(weight int) float64 { return 1 / float64(weight) }

// pickOwnerLocked returns the eligible owner with the smallest virtual
// charge point in O(log owners), advancing the virtual clocks. The
// winner is detached from the index; the caller mutates its backlog and
// ledger and then reindexes it. Caller holds q.mu.
//
// Correctness of the two-group peek: every lagged owner charges at
// exactly vtime; every ahead owner charges at its vfinish > vtime. So
// when the lagged heap is non-empty its name-minimal top is the global
// WFQ winner (all lagged owners tie, name breaks the tie, and no ahead
// owner can charge that low); otherwise the ahead heap's
// (vfinish, name)-minimal top is.
func (q *admitQueue) pickOwnerLocked() *ownerShare {
	h := &q.lagged
	if len(h.items) == 0 {
		h = &q.ahead
	}
	if len(h.items) == 0 {
		return nil
	}
	best := h.pop()
	charge := chargePoint(best.vfinish, q.vtime)
	q.vtime = charge
	best.vfinish = charge + wfqCost(best.weight)
	q.migrateLocked()
	return best
}

// takeHeadLocked removes the head of an arbitrated owner's backlog
// (nil when no owner was eligible), charging the owner's in-flight
// ledger. Caller holds q.mu.
func (q *admitQueue) takeHeadLocked(os *ownerShare) *jobRecord {
	if os == nil {
		return nil
	}
	q.gen++
	j := os.jobs.pop()
	os.reserved--
	os.inFlight++
	q.queued--
	j.usageCharged = true
	q.reindexLocked(os)
	return j
}

// pop removes and returns the next job under weighted fair queuing, or
// nil when no owner is eligible (queue empty, or every backlogged
// owner is at its in-flight cap — its jobs stay parked in place). The
// popped job is charged against its owner's in-flight count; the
// charge is released when the job terminalizes.
func (q *admitQueue) pop() *jobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeHeadLocked(q.pickOwnerLocked())
}

// remove deletes a queued job, reporting whether it was queued. Used by
// Cancel to free the job's queue slot eagerly, in O(log backlog).
func (q *admitQueue) remove(j *jobRecord) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owners[j.Owner]
	if os == nil || !os.jobs.remove(j) {
		return false
	}
	q.gen++
	os.reserved--
	q.queued--
	q.reindexLocked(os)
	q.maybePruneLocked(os)
	return true
}

// release returns a terminal job's in-flight and held-host charges to
// its owner and wakes the owner's parked dispatches. It reports whether
// anything was freed (callers use that to wake idle workers exactly
// once). Idempotent: only the first call after a pop frees anything.
func (q *admitQueue) release(j *jobRecord) bool {
	q.mu.Lock()
	if !j.usageCharged {
		q.mu.Unlock()
		return false
	}
	j.usageCharged = false
	os := q.owner(j.Owner)
	os.inFlight--
	os.hostsHeld -= len(j.heldHosts)
	j.heldHosts = nil
	if j.hostParked {
		// A parked job that terminalized (cancel, shutdown) un-gates its
		// owner here, whatever its park goroutine is still doing.
		j.hostParked = false
		os.parked--
	}
	if os.changed != nil {
		// Wake only this owner's parked dispatches: freed usage is
		// per-owner state, so terminalizing owner A's job must not
		// thunder through every other owner's parked goroutines.
		close(os.changed)
		os.changed = nil
	}
	q.reindexLocked(os)
	q.maybePruneLocked(os)
	q.mu.Unlock()
	return true
}

// holdHosts adds hosts to the job's held set and charges each host new
// to the set to the owner. The first call is the job's dispatch and the
// only one MaxHostsPerOwner gates: it refuses (ok false, nothing held)
// when the owner already holds hosts and the placement's distinct hosts
// would take it past the cap; an owner holding nothing may always
// dispatch one job, so a job larger than the cap runs alone instead of
// parking forever. Later calls add the hosts a mid-run reschedule moved
// a task onto, past the cap: a running job cannot park. A host lost to
// failure stays held until the job ends, since other tasks of the job
// may still run there. grew reports whether the set gained a host. A
// released job charges nothing, as nothing would return it: ok only.
func (q *admitQueue) holdHosts(j *jobRecord, hosts []string) (ok, grew bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !j.usageCharged {
		return true, false
	}
	os := q.owner(j.Owner)
	held := j.heldHosts
	if held == nil {
		held = make(map[string]struct{}, len(hosts))
	}
	n := len(held)
	for _, h := range hosts {
		held[h] = struct{}{}
	}
	if j.heldHosts == nil {
		if cap := q.capsFor(os).MaxHostsPerOwner; cap > 0 && os.hostsHeld > 0 && os.hostsHeld+len(held) > cap {
			return false, false
		}
		j.heldHosts = held
	}
	os.hostsHeld += len(held) - n
	return true, len(held) > n
}

// heldCount is how many distinct hosts the job holds: its dispatched
// placement plus any replacement hosts, 0 before dispatch and once it
// ended.
func (q *admitQueue) heldCount(j *jobRecord) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(j.heldHosts)
}

// usageChanged returns the owner's current usage broadcast channel: it
// closes the next time that owner's in-flight or held-host usage frees
// (or its caps change). Parked dispatches fetch it before re-checking
// quota so a release between check and wait still wakes them. The
// channel is created lazily — owners with nothing parked never allocate
// one.
func (q *admitQueue) usageChanged(owner string) <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(owner)
	if os.changed == nil {
		os.changed = make(chan struct{})
	}
	return os.changed
}

// position returns the 1-based dequeue position of a queued job (1 =
// next to pop), or 0 when the job is not queued — served from the same
// cached arbitration replay positions() serves, so the single-job and
// listing surfaces can never disagree. The membership probe is an
// identity check at the job's recorded slot: Status() asks for jobs
// already popped (or not yet pushed) all the time, and those must not
// pay for a replay.
func (q *admitQueue) position(j *jobRecord) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if os := q.owners[j.Owner]; os == nil || !os.jobs.has(j) {
		return 0
	}
	return q.positionsLocked()[j.ID]
}

// positions returns the 1-based dequeue position of every queued job
// in one arbitration replay, O(backlog·owners + backlog·log backlog)
// when the queue changed since the last call and O(1) otherwise. The
// returned map is shared with the cache: callers read, never mutate.
func (q *admitQueue) positions() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.positionsLocked()
}

// positionsLocked returns the full position replay, recomputing only
// when a push/pop/remove invalidated the cached one. Caller holds q.mu.
func (q *admitQueue) positionsLocked() map[string]int {
	if q.posCache == nil || q.posGen != q.gen {
		q.posCache = q.replayPositions()
		q.posGen = q.gen
	}
	return q.posCache
}

// replayPositions replays the weighted-fair arbitration over the
// current backlog with the live virtual clocks shadowed, assigning
// each queued job the position pop would drain it at. In-flight caps
// are ignored — a parked job reports the position it will dispatch
// from once its owner frees up. The replay uses the same chargePoint /
// wfqWins / wfqCost primitives as pickOwnerLocked, and
// TestAdmitPositionPredictsPopOrder pins the agreement. Caller holds
// q.mu.
func (q *admitQueue) replayPositions() map[string]int {
	type shadow struct {
		os      *ownerShare
		order   []*jobRecord // within-owner dequeue order
		next    int
		vfinish float64
	}
	total := 0
	shadows := make([]shadow, 0, len(q.owners))
	for _, os := range q.owners {
		if len(os.jobs.items) == 0 {
			continue
		}
		order := slices.Clone(os.jobs.items)
		sort.Slice(order, func(i, j int) bool { return queuedBefore(order[i], order[j]) })
		shadows = append(shadows, shadow{os: os, order: order, vfinish: os.vfinish})
		total += len(order)
	}
	out := make(map[string]int, total)
	vtime := q.vtime
	for pos := 1; pos <= total; pos++ {
		var best *shadow
		var bestCharge float64
		for i := range shadows {
			s := &shadows[i]
			if s.next == len(s.order) {
				continue
			}
			charge := chargePoint(s.vfinish, vtime)
			if best == nil || wfqWins(charge, s.os.name, bestCharge, best.os.name) {
				best, bestCharge = s, charge
			}
		}
		vtime = bestCharge
		best.vfinish = bestCharge + wfqCost(best.os.weight)
		out[best.order[best.next].ID] = pos
		best.next++
	}
	return out
}

// queuedLen returns the total backlog size across owners (tests and
// monitoring) — an O(1) counter read, so depth gauges cost nothing at
// 10k owners.
func (q *admitQueue) queuedLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// ownerCount returns how many owner shares the queue currently holds
// (monitoring; with pruning this tracks live owners, not every owner
// ever seen).
func (q *admitQueue) ownerCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.owners)
}

// pruneCount returns how many idle owner shares have been retired.
func (q *admitQueue) pruneCount() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.prunes
}

// setOwnerAdmin applies a runtime owner-admin update: a weight >= 1
// pins the owner's fair-share weight against future submissions, and a
// non-nil caps installs a per-owner quota override (replacing any
// previous override wholesale). It wakes the owner's parked dispatches
// — a raised cap may free them — and invalidates the position cache,
// since a weight change reorders the arbitration replay.
func (q *admitQueue) setOwnerAdmin(name string, weight int, caps *QuotaConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	os := q.owner(name)
	if weight >= 1 {
		os.weight = clampShareWeight(weight)
		os.pinned = true
	}
	if caps != nil {
		c := *caps
		os.caps = &c
	}
	q.gen++
	if os.changed != nil {
		close(os.changed)
		os.changed = nil
	}
	q.reindexLocked(os)
	q.maybePruneLocked(os)
}

// ownerAdmin reports an owner's effective admin state: weight, whether
// it is pinned, the caps that govern it, whether those caps are a
// per-owner override (as opposed to the queue-wide config), and whether
// the queue currently holds a share for the owner at all. A read — it
// does not materialize a share for unknown owners, which would leak
// one per monitoring probe.
func (q *admitQueue) ownerAdmin(name string) (weight int, pinned bool, caps QuotaConfig, override, known bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if os, ok := q.owners[name]; ok {
		return os.weight, os.pinned, q.capsFor(os), os.caps != nil, true
	}
	return 1, false, q.quota, false, false
}

// ownerWeights snapshots each live owner's fair-share weight.
func (q *admitQueue) ownerWeights() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.owners))
	for name, os := range q.owners {
		out[name] = os.weight
	}
	return out
}
