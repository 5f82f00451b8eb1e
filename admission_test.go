package vdce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"vdce/internal/services"
)

// mkAdmitJob builds a bare queue-test job (never dispatched).
func mkAdmitJob(id, owner string, prio, weight int, at time.Time) *jobRecord {
	return &jobRecord{ID: id, Owner: owner, priority: prio, shareWeight: weight, timings: services.JobTimings{SubmittedAt: at}}
}

// checkHeapInvariant asserts every owner sub-queue is a valid
// before()-ordered binary heap.
func checkHeapInvariant(t *testing.T, q *admitQueue) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	for name, os := range q.owners {
		for i := 1; i < len(os.jobs); i++ {
			parent := (i - 1) / 2
			if os.jobs[i].before(os.jobs[parent]) {
				t.Fatalf("owner %q heap invariant broken at index %d: %s before parent %s",
					name, i, os.jobs[i].job.ID, os.jobs[parent].job.ID)
			}
		}
	}
}

// TestAdmitSaturatedRankTiesFallBackToFIFO pins the saturation
// tie-break: jobs whose absurd priorities saturate the rank clamp AND
// share an enqueue instant have identical ranks, so they must dequeue
// in push (seq) order, not heap-internal order.
func TestAdmitSaturatedRankTiesFallBackToFIFO(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{})
	t0 := time.Unix(5000, 0)
	huge := int(^uint(0) >> 1)
	const n = 9
	for i := 0; i < n; i++ {
		// Alternate between +huge and a merely absurd value that also
		// saturates: both clamp to the same boost, leaving seq as the
		// only discriminator.
		p := huge
		if i%2 == 1 {
			p = huge - 1000
		}
		q.push(mkAdmitJob(fmt.Sprintf("sat-%d", i), "", p, 1, t0))
	}
	checkHeapInvariant(t, q)
	for i := 0; i < n; i++ {
		j := q.pop()
		if j == nil || j.ID != fmt.Sprintf("sat-%d", i) {
			t.Fatalf("saturated pop %d = %v, want sat-%d (FIFO seq order)", i, j, i)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue not drained")
	}
}

// TestAdmitFairInterleavingIsWeightProportional pins the cross-owner
// arbitration: with owners weighted 1/1/2 and a deep backlog, every
// consecutive window of 4 pops contains exactly one job from each
// weight-1 owner and two from the weight-2 owner.
func TestAdmitFairInterleavingIsWeightProportional(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{})
	t0 := time.Unix(6000, 0)
	weights := map[string]int{"a": 1, "b": 1, "c": 2}
	const per = 20
	for i := 0; i < per; i++ {
		for _, owner := range []string{"a", "b", "c"} {
			q.push(mkAdmitJob(fmt.Sprintf("%s-%d", owner, i), owner, 0, weights[owner], t0))
		}
	}
	// c holds 20 jobs but earns 2 of every 4 pops; it drains after 10
	// windows, so only the first 10 windows have all owners backlogged.
	counts := map[string]int{}
	for w := 0; w < 10; w++ {
		window := map[string]int{}
		for k := 0; k < 4; k++ {
			j := q.pop()
			if j == nil {
				t.Fatalf("pop returned nil with backlog remaining (window %d)", w)
			}
			window[j.Owner]++
			counts[j.Owner]++
		}
		if window["a"] != 1 || window["b"] != 1 || window["c"] != 2 {
			t.Fatalf("window %d shares = %v, want a:1 b:1 c:2", w, window)
		}
	}
	if counts["a"] != 10 || counts["b"] != 10 || counts["c"] != 20 {
		t.Fatalf("40-pop shares = %v, want a:10 b:10 c:20", counts)
	}
	// Within one owner, FIFO order held (equal priorities).
	q2 := newAdmitQueue(time.Second, QuotaConfig{})
	q2.push(mkAdmitJob("x-0", "x", 0, 1, t0))
	q2.push(mkAdmitJob("x-1", "x", 5, 1, t0))
	if j := q2.pop(); j.ID != "x-1" {
		t.Fatalf("within-owner priority ignored: popped %s", j.ID)
	}
}

// TestAdmitInFlightCapParksOwnerInPlace pins the pop-side quota gate:
// an owner at its in-flight cap is skipped (its jobs stay queued, no
// virtual time charged) while other owners dispatch past it, and a
// release makes it eligible again.
func TestAdmitInFlightCapParksOwnerInPlace(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{MaxInFlightPerOwner: 1})
	t0 := time.Unix(7000, 0)
	a0 := mkAdmitJob("a-0", "a", 0, 1, t0)
	q.push(a0)
	q.push(mkAdmitJob("a-1", "a", 0, 1, t0))
	q.push(mkAdmitJob("b-0", "b", 0, 1, t0))

	if j := q.pop(); j == nil || j.ID != "a-0" {
		t.Fatalf("first pop = %v, want a-0", j)
	}
	if j := q.pop(); j == nil || j.ID != "b-0" {
		t.Fatalf("second pop = %v, want b-0 (a is at its in-flight cap)", j)
	}
	if j := q.pop(); j != nil {
		t.Fatalf("third pop = %v, want nil (a capped, b empty)", j)
	}
	if pos := q.position("a-1"); pos != 1 {
		t.Fatalf("parked job position = %d, want 1 (next once the owner frees)", pos)
	}
	if !q.release(a0) {
		t.Fatal("release(a-0) freed nothing")
	}
	if q.release(a0) {
		t.Fatal("double release freed twice")
	}
	if j := q.pop(); j == nil || j.ID != "a-1" {
		t.Fatalf("post-release pop = %v, want a-1", j)
	}
}

// TestAdmitReplacementHostChargesLedger pins the mid-run accounting:
// a host the engine reschedules onto joins the job's held set and is
// charged to the owner's held-hosts ledger exactly once (even past the
// cap — a running job cannot park), and release returns the dispatch
// charge and every replacement charge together.
func TestAdmitReplacementHostChargesLedger(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{MaxHostsPerOwner: 2})
	j := mkAdmitJob("a-0", "a", 0, 1, time.Unix(1, 0))
	q.push(j)
	if got := q.pop(); got != j {
		t.Fatalf("pop = %v, want a-0", got)
	}
	hold := func(j *jobRecord, hosts ...string) (ok, grew bool, n int) {
		ok, grew = q.holdHosts(j, hosts)
		return ok, grew, q.heldCount(j)
	}
	if ok, grew, n := hold(j, "h1", "h2", "h1"); !ok || !grew || n != 2 {
		t.Fatalf("dispatch charge = (%v, %v, %d), want (true, true, 2): the owner held nothing", ok, grew, n)
	}
	if ok, grew, n := hold(j, "h3"); !ok || !grew || n != 3 {
		t.Fatalf("replacement charge = (%v, %v, %d), want (true, true, 3)", ok, grew, n)
	}
	if ok, grew, n := hold(j, "h3"); !ok || grew || n != 3 {
		t.Fatalf("duplicate replacement charge = (%v, %v, %d), want (true, false, 3)", ok, grew, n)
	}
	if ok, grew, n := hold(j, "h1"); !ok || grew || n != 3 {
		t.Fatalf("already-placed host charge = (%v, %v, %d), want (true, false, 3)", ok, grew, n)
	}
	q.mu.Lock()
	held := q.owners["a"].hostsHeld
	q.mu.Unlock()
	if held != 3 {
		t.Fatalf("owner holds %d hosts, want 3 (2 dispatched + 1 replacement)", held)
	}
	// A second job of the owner now parks against the true usage.
	j2 := mkAdmitJob("a-1", "a", 0, 1, time.Unix(2, 0))
	q.push(j2)
	if q.pop() != j2 {
		t.Fatal("pop did not return a-1")
	}
	if ok, grew, n := hold(j2, "h4"); ok || grew || n != 0 {
		t.Fatalf("dispatch past the inflated ledger = (%v, %v, %d), want (false, false, 0): it should park", ok, grew, n)
	}
	if !q.release(j) {
		t.Fatal("release freed nothing")
	}
	q.mu.Lock()
	held = q.owners["a"].hostsHeld
	q.mu.Unlock()
	if held != 0 {
		t.Fatalf("owner holds %d hosts after release, want 0", held)
	}
	// Terminal jobs never charge (the late-event race).
	if ok, grew, n := hold(j, "h9"); !ok || grew || n != 0 {
		t.Fatalf("post-release replacement charge = (%v, %v, %d), want (true, false, 0)", ok, grew, n)
	}
}

// TestAdmitQueueRandomizedAgainstReference is the property check over
// randomized push/pop/cancel sequences (fixed seed): the queue must
// agree with a sort-based reference model at every pop, keep every
// owner heap's invariant intact after removals (the pop-after-cancel
// regression), and report positions consistent with actual dequeue
// order.
func TestAdmitQueueRandomizedAgainstReference(t *testing.T) {
	const (
		seed = 42
		ops  = 4000
	)
	rng := rand.New(rand.NewSource(seed))
	step := 250 * time.Millisecond
	q := newAdmitQueue(step, QuotaConfig{})
	owners := []string{"", "ana", "bo", "cyd"}
	weights := map[string]int{"": 1, "ana": 1, "bo": 2, "cyd": 3}

	// Reference model: per owner, entries sorted by (rank desc, seq asc).
	type refEntry struct {
		id   string
		rank int64
		seq  uint64
	}
	ref := map[string][]*refEntry{}
	var refSeq uint64
	refPop := func(owner string) string {
		entries := ref[owner]
		if len(entries) == 0 {
			return ""
		}
		best := 0
		for i, e := range entries {
			if e.rank > entries[best].rank ||
				(e.rank == entries[best].rank && e.seq < entries[best].seq) {
				best = i
			}
		}
		id := entries[best].id
		ref[owner] = append(entries[:best], entries[best+1:]...)
		return id
	}
	refRemove := func(id string) bool {
		for owner, entries := range ref {
			for i, e := range entries {
				if e.id == id {
					ref[owner] = append(entries[:i], entries[i+1:]...)
					return true
				}
			}
		}
		return false
	}
	var live []string
	t0 := time.Unix(9000, 0)
	nextID := 0

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 50: // push
			owner := owners[rng.Intn(len(owners))]
			prio := rng.Intn(21) - 10
			if rng.Intn(20) == 0 {
				prio = int(^uint(0)>>1) - rng.Intn(2) // saturating
			}
			at := t0.Add(time.Duration(rng.Intn(10000)) * time.Millisecond)
			id := fmt.Sprintf("r-%d", nextID)
			nextID++
			q.push(mkAdmitJob(id, owner, prio, weights[owner], at))
			refSeq++
			ref[owner] = append(ref[owner], &refEntry{id: id, rank: q.rank(prio, at), seq: refSeq})
			live = append(live, id)
		case r < 75: // pop: must match the reference for the popped owner
			j := q.pop()
			if j == nil {
				total := 0
				for _, entries := range ref {
					total += len(entries)
				}
				if total != 0 {
					t.Fatalf("op %d: pop = nil with %d jobs in the reference", op, total)
				}
				continue
			}
			if want := refPop(j.Owner); j.ID != want {
				t.Fatalf("op %d: pop for owner %q = %s, reference says %s", op, j.Owner, j.ID, want)
			}
			for i, id := range live {
				if id == j.ID {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		case r < 90: // cancel (remove) a random live job
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			if !q.remove(id) {
				t.Fatalf("op %d: remove(%s) found nothing, reference disagrees", op, id)
			}
			if !refRemove(id) {
				t.Fatalf("op %d: reference remove(%s) missing", op, id)
			}
			if q.remove(id) {
				t.Fatalf("op %d: double remove(%s) succeeded", op, id)
			}
			live = append(live[:i], live[i+1:]...)
		default: // position sanity: 1-based, bounded by backlog, unique head
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			pos := q.position(id)
			if pos < 1 || pos > len(live) {
				t.Fatalf("op %d: position(%s) = %d with %d queued", op, id, pos, len(live))
			}
		}
		if op%97 == 0 {
			checkHeapInvariant(t, q)
		}
	}

	// Drain: every remaining pop must keep matching the reference, and
	// the set of positions just before draining must be a permutation of
	// 1..n.
	checkHeapInvariant(t, q)
	positions := make([]int, 0, len(live))
	for _, id := range live {
		positions = append(positions, q.position(id))
	}
	sort.Ints(positions)
	for i, p := range positions {
		if p != i+1 {
			t.Fatalf("positions are not a permutation of 1..%d: %v", len(positions), positions)
		}
	}
	drained := 0
	for {
		j := q.pop()
		if j == nil {
			break
		}
		if want := refPop(j.Owner); j.ID != want {
			t.Fatalf("drain: pop for owner %q = %s, reference says %s", j.Owner, j.ID, want)
		}
		drained++
		checkHeapInvariant(t, q)
	}
	if drained != len(live) {
		t.Fatalf("drained %d jobs, reference had %d", drained, len(live))
	}
}

// TestAdmitPositionPredictsPopOrder pins position() against reality:
// over a mixed-owner, mixed-priority backlog the reported positions
// must equal the order pop actually produces.
func TestAdmitPositionPredictsPopOrder(t *testing.T) {
	q := newAdmitQueue(time.Second, QuotaConfig{})
	t0 := time.Unix(8000, 0)
	ids := []string{}
	for i := 0; i < 24; i++ {
		owner := []string{"a", "b", "c"}[i%3]
		weight := map[string]int{"a": 1, "b": 1, "c": 2}[owner]
		id := fmt.Sprintf("%s-%d", owner, i)
		q.push(mkAdmitJob(id, owner, i%5, weight, t0.Add(time.Duration(i)*time.Millisecond)))
		ids = append(ids, id)
	}
	byPos := make(map[int]string, len(ids))
	batch := q.positions()
	for _, id := range ids {
		pos := q.position(id)
		if prev, dup := byPos[pos]; dup {
			t.Fatalf("position %d claimed by both %s and %s", pos, prev, id)
		}
		byPos[pos] = id
		if batch[id] != pos {
			t.Fatalf("positions()[%s] = %d, position() = %d — batch and single replay disagree",
				id, batch[id], pos)
		}
	}
	for i := 1; i <= len(ids); i++ {
		j := q.pop()
		if j == nil {
			t.Fatalf("pop %d = nil", i)
		}
		if byPos[i] != j.ID {
			t.Fatalf("pop %d = %s, but position() predicted %s", i, j.ID, byPos[i])
		}
	}
}
