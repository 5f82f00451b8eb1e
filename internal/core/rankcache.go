package core

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/predict"
	"vdce/internal/repository"
)

// RankCacheStats reports the ranked-host cache counters of one site.
type RankCacheStats struct {
	// Hits counts lookups served from a kept order as it stood.
	Hits int64 `json:"hits"`
	// Misses counts rebuilds of a task's eligible hosts (first lookups
	// included) and re-sorts after a measurement moved a host.
	Misses int64 `json:"misses"`
	// Invalidations counts the misses that replaced a kept order.
	Invalidations int64 `json:"invalidations"`
}

// rankCache keeps, per (task, preference) key, the task's eligible hosts
// on the site in name order and in their last rank order, each with its
// model estimate (Predict with no measurement) and load. No measurement
// is in it: an entry is valid while the resource epoch, the constraints
// write counter, the predictor constants and the task's parameters are
// those it was built from, and every choice blends the snapshot's
// measured times in (predict.Predictor.Blend), so a write-back reaches
// the next choice without a rebuild. Lookups are lock-free; concurrent
// rounds share a rebuild singleflight-style under the entry's mutex.
type rankCache struct {
	entries sync.Map     // rankKey -> *rankEntry; lock-free lookups
	count   atomic.Int64 // approximate entry count for the eviction cap

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// rankKey identifies a cached order. Eligibility depends on the task's
// editor preferences, not just its name — two graphs may share a task
// name with different machine-type or host pins — so the preferences are
// part of the key.
type rankKey struct {
	task        string
	machineType string
	hostPin     string
}

func keyFor(task *afg.Task) rankKey {
	return rankKey{task: task.Name, machineType: task.Props.MachineType, hostPin: task.Props.Host}
}

// rankOrder is one immutable published order of a task's eligible hosts
// and what it was built from (the blend ablation flips Predictor fields
// at runtime). Host choices are slices of names: read-only.
type rankOrder struct {
	resGen, consGen uint64
	pred            predict.Predictor
	params          repository.TaskParams
	// hosts and names are the eligible hosts in name order, so a choice
	// blends the measured times in with one merge walk. Re-sorted orders
	// share them.
	hosts  []candidate
	names  []string
	rank   []int    // hosts' indexes in rank order
	ranked []string // names in rank order
}

// candidate is one eligible host's single-node model estimate and the
// load Blend rescales its measurement by.
type candidate struct {
	model time.Duration
	load  float64
}

// single is host i's single-node prediction given its measured time d,
// if measured: Predict's value.
func (r *rankOrder) single(i int, d time.Duration, measured bool) time.Duration {
	if !measured {
		return r.hosts[i].model
	}
	return r.pred.Blend(r.hosts[i].model, r.hosts[i].load, d)
}

// leads reports whether r's first n ranked hosts (all of them for n < 0)
// are its n best under m, in order; n must not be 0. Fig. 3's order is
// ascending prediction, ties by name, which is index order.
func (r *rankOrder) leads(m repository.Measurements, n int) bool {
	if n < 0 {
		n = len(r.rank)
	}
	at := func(i int) time.Duration {
		d, ok := m.On(r.names[i])
		return r.single(i, d, ok)
	}
	for k := 1; k < len(r.rank); k++ {
		if i, j := r.rank[min(k, n)-1], r.rank[k]; cmp.Or(cmp.Compare(at(i), at(j)), cmp.Compare(i, j)) > 0 {
			return false
		}
	}
	return true
}

// sorted returns r ranked under m.
func (r rankOrder) sorted(m repository.Measurements) *rankOrder {
	keys := make([]time.Duration, len(r.names))
	r.rank = make([]int, len(r.names))
	for i, name := range r.names {
		d, ok := m.Seek(name)
		keys[i], r.rank[i] = r.single(i, d, ok), i
	}
	slices.SortFunc(r.rank, func(i, j int) int { return cmp.Or(cmp.Compare(keys[i], keys[j]), cmp.Compare(i, j)) })
	r.ranked = make([]string, len(r.rank))
	for k, i := range r.rank {
		r.ranked[k] = r.names[i]
	}
	return &r
}

// rankEntry is one cache slot; mu serializes only the rebuild.
type rankEntry struct {
	mu  sync.Mutex // singleflight rebuild only
	cur atomic.Pointer[rankOrder]
}

// maxRankEntries bounds the cache. Keys embed client-supplied editor
// preferences (host pins, machine types are arbitrary per-graph
// strings), so without a cap a long-lived site accumulates one entry
// per distinct triple forever. The task catalog times realistic
// preference variety sits far below this; overflowing it means churn,
// where caching is worthless anyway.
const maxRankEntries = 4096

// entry returns (creating if needed) the slot for key. The steady-state
// path — key already present — is a lock-free sync.Map load, so
// concurrent scheduler rounds never serialize on the cache itself.
func (c *rankCache) entry(key rankKey) *rankEntry {
	if v, ok := c.entries.Load(key); ok {
		return v.(*rankEntry)
	}
	v, loaded := c.entries.LoadOrStore(key, &rankEntry{})
	if !loaded && c.count.Add(1) > maxRankEntries {
		// Evict one arbitrary other entry (Range order is unspecified);
		// in-flight holders of an evicted *rankEntry are unaffected —
		// they just lose shared recomputation. LoadAndDelete keeps the
		// counter honest when two evictors pick the same victim.
		c.entries.Range(func(k, _ any) bool {
			if k == key {
				return true
			}
			if _, present := c.entries.LoadAndDelete(k); present {
				c.count.Add(-1)
				return false
			}
			return true
		})
	}
	return v.(*rankEntry)
}

// stats snapshots the counters.
func (c *rankCache) stats() RankCacheStats {
	return RankCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
