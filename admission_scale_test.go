package vdce

// Scale suite for the O(log owners) admission rewrite: the randomized
// indexed-vs-linear equivalence stream (the honesty check on the
// eligible-owner index), the cancel-storm and transient-owner-churn
// regressions for the location index and owner pruning, the per-owner
// wake isolation pin, batch-pop equivalence, and the pop-path alloc
// guard CI enforces.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// twinJob is one logical job realized as two *jobRecord instances, one per
// queue under comparison — pop and setParked mutate per-job fields
// (usageCharged, hostParked), so the twin queues must never share an
// instance.
type twinJob struct{ a, b *jobRecord }

// checkIndexInvariants asserts the eligible-owner index matches the
// owner map exactly: every eligible owner sits in the heap its vfinish
// dictates (vfinish <= vtime -> lagged, else ahead), every ineligible
// owner in neither, hidx back-pointers are live, both heaps are valid
// min-heaps, and the job-location index round-trips every queued job.
func checkIndexInvariants(t *testing.T, q *admitQueue) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	inHeap := make(map[*ownerShare]int8)
	for _, h := range []*ownerHeap{&q.lagged, &q.ahead} {
		for i, os := range h.items {
			if os.where != h.id || os.hidx != i {
				t.Fatalf("owner %q heap back-pointer stale: where=%d hidx=%d, at heap %d slot %d",
					os.name, os.where, os.hidx, h.id, i)
			}
			if i > 0 {
				parent := (i - 1) / 2
				if h.less(os, h.items[parent]) {
					t.Fatalf("owner heap %d order broken at slot %d (%q before parent %q)",
						h.id, i, os.name, h.items[parent].name)
				}
			}
			inHeap[os] = h.id
		}
	}
	queued := 0
	for name, os := range q.owners {
		want := heapNone
		if q.eligible(os) {
			want = heapLagged
			if os.vfinish > q.vtime {
				want = heapAhead
			}
		}
		if got := inHeap[os]; got != want {
			t.Fatalf("owner %q in heap %d, want %d (vfinish=%v vtime=%v eligible=%v)",
				name, got, want, os.vfinish, q.vtime, q.eligible(os))
		}
		queued += len(os.jobs)
		for i, e := range os.jobs {
			l, ok := q.loc[e.job.ID]
			if !ok || l.os != os || l.idx != i {
				t.Fatalf("location index wrong for %q: got %+v, want owner %q idx %d",
					e.job.ID, l, name, i)
			}
		}
	}
	if queued != q.queued {
		t.Fatalf("q.queued = %d, want %d (sum of backlogs)", q.queued, queued)
	}
	if len(q.loc) != queued {
		t.Fatalf("location index holds %d jobs, want %d", len(q.loc), queued)
	}
}

// TestIndexedArbiterMatchesLinearReference drives the indexed WFQ
// arbiter and the retained linear-scan reference side by side from one
// fixed-seed op stream — push, pop, cancel, park/unpark, release,
// weight pins, and per-owner cap overrides — asserting identical pop
// order throughout and on the final drain. This is the satellite that
// keeps the O(log n) rewrite honest: any divergence in eligibility,
// charge points, or tie-breaks shows up as a mismatched pop.
func TestIndexedArbiterMatchesLinearReference(t *testing.T) {
	const ops = 6000
	rng := rand.New(rand.NewSource(20260808))
	base := time.Unix(9000, 0)
	qa := newAdmitQueue(time.Second, QuotaConfig{}) // pops via the index
	qb := newAdmitQueue(time.Second, QuotaConfig{}) // pops via the linear scan

	jobs := make(map[string]twinJob)
	var queuedIDs, inflightIDs []string
	next := 0

	ownerName := func() string { return fmt.Sprintf("o%02d", rng.Intn(40)) }
	popBoth := func() (string, bool) {
		ja, jb := qa.pop(), qb.popLinear()
		switch {
		case ja == nil && jb == nil:
			return "", false
		case ja == nil || jb == nil:
			t.Fatalf("arbiter divergence: indexed=%v linear=%v", ja, jb)
		case ja.ID != jb.ID:
			t.Fatalf("pop order divergence: indexed popped %q, linear popped %q", ja.ID, jb.ID)
		}
		return ja.ID, true
	}
	removeID := func(ids []string, i int) []string {
		ids[i] = ids[len(ids)-1]
		return ids[:len(ids)-1]
	}

	for op := 0; op < ops; op++ {
		switch c := rng.Intn(100); {
		case c < 40: // push
			id := fmt.Sprintf("j%d", next)
			next++
			owner := ownerName()
			prio := rng.Intn(9) - 4
			weight := rng.Intn(5) // 0 leaves the owner's weight alone
			at := base.Add(time.Duration(rng.Intn(5_000_000)) * time.Microsecond)
			tj := twinJob{
				a: mkAdmitJob(id, owner, prio, weight, at),
				b: mkAdmitJob(id, owner, prio, weight, at),
			}
			jobs[id] = tj
			qa.push(tj.a)
			qb.push(tj.b)
			queuedIDs = append(queuedIDs, id)
		case c < 70: // pop
			id, ok := popBoth()
			if !ok {
				continue
			}
			for i, qid := range queuedIDs {
				if qid == id {
					queuedIDs = removeID(queuedIDs, i)
					break
				}
			}
			inflightIDs = append(inflightIDs, id)
		case c < 80: // cancel a queued job
			if len(queuedIDs) == 0 {
				continue
			}
			i := rng.Intn(len(queuedIDs))
			id := queuedIDs[i]
			queuedIDs = removeID(queuedIDs, i)
			fa, fb := qa.remove(id), qb.remove(id)
			if !fa || !fb {
				t.Fatalf("cancel %q: indexed found=%v linear found=%v, want both true", id, fa, fb)
			}
			delete(jobs, id)
		case c < 85: // toggle a host-quota park on an in-flight job
			if len(inflightIDs) == 0 {
				continue
			}
			tj := jobs[inflightIDs[rng.Intn(len(inflightIDs))]]
			parked := !tj.a.hostParked
			qa.setParked(tj.a, parked)
			qb.setParked(tj.b, parked)
		case c < 95: // release an in-flight job (also clears its park)
			if len(inflightIDs) == 0 {
				continue
			}
			i := rng.Intn(len(inflightIDs))
			id := inflightIDs[i]
			inflightIDs = removeID(inflightIDs, i)
			tj := jobs[id]
			qa.release(tj.a)
			qb.release(tj.b)
			delete(jobs, id)
		default: // owner-admin update: weight pin, sometimes an in-flight cap
			owner := ownerName()
			weight := 1 + rng.Intn(4)
			var caps *QuotaConfig
			if rng.Intn(2) == 0 {
				caps = &QuotaConfig{MaxInFlightPerOwner: 1 + rng.Intn(3)}
			}
			qa.setOwnerAdmin(owner, weight, caps)
			qb.setOwnerAdmin(owner, weight, caps)
		}
		if op%500 == 0 {
			checkIndexInvariants(t, qa)
			if la, lb := qa.queuedLen(), qb.queuedLen(); la != lb {
				t.Fatalf("backlog divergence at op %d: indexed=%d linear=%d", op, la, lb)
			}
		}
	}

	// Drain: release everything in flight (lifting caps and parks), then
	// pop both queues dry and require the full remaining order to match.
	for _, id := range inflightIDs {
		tj := jobs[id]
		qa.release(tj.a)
		qb.release(tj.b)
	}
	checkIndexInvariants(t, qa)
	drained := 0
	for {
		id, ok := popBoth()
		if !ok {
			break
		}
		tj := jobs[id]
		qa.release(tj.a)
		qb.release(tj.b)
		drained++
	}
	if want := len(queuedIDs); drained != want {
		t.Fatalf("final drain popped %d jobs, want %d", drained, want)
	}
	if qa.queuedLen() != 0 || qb.queuedLen() != 0 {
		t.Fatalf("queues not empty after drain: indexed=%d linear=%d", qa.queuedLen(), qb.queuedLen())
	}
}

// TestAdmitCancelStormUnderDeadline is the satellite-1 regression: a
// cancel storm over a deep multi-owner backlog must run in near-linear
// time via the job-location index. The pre-index remove scanned every
// owner's entire backlog per call — O(owners x jobs), ~10^8 entry
// visits for this shape — so the wall-clock bound fails loudly on a
// regression while staying far from flaky on a loaded CI runner.
func TestAdmitCancelStormUnderDeadline(t *testing.T) {
	const (
		jobsN  = 10_000
		owners = 1_000
	)
	q := newAdmitQueue(time.Second, QuotaConfig{})
	base := time.Unix(12000, 0)
	ids := make([]string, jobsN)
	for i := 0; i < jobsN; i++ {
		owner := fmt.Sprintf("storm-%d", i%owners)
		if err := q.reserveQueued(owner); err != nil {
			t.Fatal(err)
		}
		ids[i] = fmt.Sprintf("s%d", i)
		q.push(mkAdmitJob(ids[i], owner, i%5, 1+i%3, base.Add(time.Duration(i)*time.Millisecond)))
	}
	rand.New(rand.NewSource(7)).Shuffle(jobsN, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

	start := time.Now()
	for _, id := range ids {
		if !q.remove(id) {
			t.Fatalf("remove(%q) did not find the queued job", id)
		}
	}
	elapsed := time.Since(start)
	const deadline = 5 * time.Second
	if elapsed > deadline {
		t.Fatalf("canceling %d queued jobs took %v, want < %v (location index regression)",
			jobsN, elapsed, deadline)
	}
	if n := q.queuedLen(); n != 0 {
		t.Fatalf("backlog after storm = %d, want 0", n)
	}
	// Every owner fully drained by cancels alone, so pruning must have
	// retired every share.
	if n := q.ownerCount(); n != 0 {
		t.Fatalf("owner shares after storm = %d, want 0 (pruning regression)", n)
	}
}

// TestAdmitTransientOwnersPruned is the satellite-2 regression: 10k
// one-shot owners that each submit, dispatch, and terminalize one job
// must leave the queue at steady-state size — the owner map, the
// eligible index, and the position replay all return to empty.
func TestAdmitTransientOwnersPruned(t *testing.T) {
	const ownersN = 10_000
	q := newAdmitQueue(time.Second, QuotaConfig{})
	base := time.Unix(15000, 0)
	for i := 0; i < ownersN; i++ {
		owner := fmt.Sprintf("transient-%d", i)
		if err := q.reserveQueued(owner); err != nil {
			t.Fatal(err)
		}
		j := mkAdmitJob(fmt.Sprintf("t%d", i), owner, 0, 1+i%4, base.Add(time.Duration(i)*time.Microsecond))
		q.push(j)
		popped := q.pop()
		if popped == nil || popped.ID != j.ID {
			t.Fatalf("owner %d: pop = %v, want %s", i, popped, j.ID)
		}
		if !q.release(popped) {
			t.Fatalf("owner %d: release freed nothing", i)
		}
	}
	if n := q.ownerCount(); n != 0 {
		t.Fatalf("owner shares after %d transient owners = %d, want 0", ownersN, n)
	}
	if n := q.pruneCount(); n != ownersN {
		t.Fatalf("prune count = %d, want %d", n, ownersN)
	}
	checkIndexInvariants(t, q)

	// A pinned owner survives its drain (admin state is live state), and
	// un-pinning semantics are out of scope — the share must simply not
	// be collected while the pin holds.
	q.setOwnerAdmin("pinned-owner", 3, nil)
	if err := q.reserveQueued("pinned-owner"); err != nil {
		t.Fatal(err)
	}
	q.push(mkAdmitJob("pin-1", "pinned-owner", 0, 0, base))
	q.release(q.pop())
	if n := q.ownerCount(); n != 1 {
		t.Fatalf("owner shares with one pinned owner = %d, want 1", n)
	}
}

// TestAdmitReleaseWakesOnlyOwner is the satellite-3 pin: terminalizing
// owner A's job closes A's usage broadcast and leaves B's untouched —
// the thundering herd (one global channel closed per terminal job,
// waking every parked goroutine in the system) stays dead.
func TestAdmitReleaseWakesOnlyOwner(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{})
	base := time.Unix(16000, 0)
	ja := mkAdmitJob("wake-a", "owner-a", 0, 1, base)
	jb := mkAdmitJob("wake-b", "owner-b", 0, 1, base.Add(time.Millisecond))
	q.push(ja)
	q.push(jb)
	for i := 0; i < 2; i++ {
		if q.pop() == nil {
			t.Fatal("pop drained early")
		}
	}

	chA := q.usageChanged("owner-a")
	chB := q.usageChanged("owner-b")
	if !q.release(ja) {
		t.Fatal("release(ja) freed nothing")
	}
	select {
	case <-chA:
	default:
		t.Fatal("owner-a's usage channel not closed by its own job's release")
	}
	select {
	case <-chB:
		t.Fatal("owner-b's parked dispatches woken by owner-a's terminal job")
	default:
	}
	// B's own release closes B's channel.
	if !q.release(jb) {
		t.Fatal("release(jb) freed nothing")
	}
	select {
	case <-chB:
	default:
		t.Fatal("owner-b's usage channel not closed by its own job's release")
	}
}

// TestAdmitPopBatchMatchesSequentialPops pins the batched scheduler
// handoff's semantics: popBatch(k) is exactly k sequential pops under
// one lock — same jobs, same order, same ledger charges.
func TestAdmitPopBatchMatchesSequentialPops(t *testing.T) {
	mk := func() *admitQueue {
		q := newAdmitQueue(time.Second, QuotaConfig{})
		base := time.Unix(17000, 0)
		for i := 0; i < 40; i++ {
			owner := fmt.Sprintf("b%d", i%7)
			q.push(mkAdmitJob(fmt.Sprintf("seq-%d", i), owner, i%3, 1+i%3,
				base.Add(time.Duration(i)*time.Millisecond)))
		}
		return q
	}
	one, batched := mk(), mk()
	var want, got []string
	for {
		j := one.pop()
		if j == nil {
			break
		}
		want = append(want, j.ID)
	}
	buf := make([]*jobRecord, 0, 6)
	for {
		buf = batched.popBatch(buf[:0], 6)
		if len(buf) == 0 {
			break
		}
		for _, j := range buf {
			got = append(got, j.ID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("batched drain popped %d jobs, sequential popped %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: batched=%q sequential=%q", i, got[i], want[i])
		}
	}
}

// TestAdmitPopAllocFree is the CI alloc guard on the pop hot path: a
// steady-state pop (heaps at capacity, no position replay) must not
// allocate at all — at 10k owners, one allocation per pop is the
// difference between the index paying for itself and GC churn eating
// the win.
func TestAdmitPopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	q := newAdmitQueue(time.Second, QuotaConfig{})
	base := time.Unix(18000, 0)
	const (
		ownersN = 32
		jobsN   = 256
		runs    = 100
	)
	for i := 0; i < jobsN; i++ {
		q.push(mkAdmitJob(fmt.Sprintf("a%d", i), fmt.Sprintf("alloc-%d", i%ownersN), i%5, 1+i%3,
			base.Add(time.Duration(i)*time.Millisecond)))
	}
	// Warm the index heaps to capacity: the first pops migrate owners
	// into the ahead heap, growing its backing array once.
	for i := 0; i < ownersN*2; i++ {
		if q.pop() == nil {
			t.Fatal("queue drained during warmup")
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if q.pop() == nil {
			t.Fatal("queue drained mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("pop allocates %.2f objects per op, want 0", allocs)
	}
}
