package vdce

// The linear reference arbiter: the O(owners) scan the eligible-owner
// index replaced. TestIndexedArbiterMatchesLinearReference drives it
// and pickOwnerLocked from one op stream and asserts identical pop
// order; BenchmarkAdmission10kOwners uses it as the scaling baseline.

// pickOwnerLinearLocked scans every owner for the smallest virtual
// charge point. It maintains the same index/clock state as
// pickOwnerLocked so the two are interchangeable mid-stream. Caller
// holds q.mu.
func (q *admitQueue) pickOwnerLinearLocked() *ownerShare {
	var best *ownerShare
	var bestCharge float64
	for _, os := range q.owners {
		if !q.eligible(os) {
			continue
		}
		charge := chargePoint(os.vfinish, q.vtime)
		if best == nil || wfqWins(charge, os.name, bestCharge, best.name) {
			best, bestCharge = os, charge
		}
	}
	if best == nil {
		return nil
	}
	q.detachLocked(best)
	q.vtime = bestCharge
	best.vfinish = bestCharge + wfqCost(best.weight)
	q.migrateLocked()
	return best
}

// popLinear is pop arbitrated by the linear-scan reference.
func (q *admitQueue) popLinear() *jobRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.takeHeadLocked(q.pickOwnerLinearLocked())
}
