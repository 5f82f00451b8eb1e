package core

import (
	"sync"
	"sync/atomic"

	"vdce/internal/afg"
	"vdce/internal/predict"
)

// RankCacheStats reports the ranked-host cache counters of one site.
type RankCacheStats struct {
	// Hits counts lookups served from an unchanged-generation entry.
	Hits int64 `json:"hits"`
	// Misses counts recomputations (first-time entries included).
	Misses int64 `json:"misses"`
	// Invalidations counts recomputations that replaced an entry whose
	// generations had been outrun by repository writes.
	Invalidations int64 `json:"invalidations"`
}

// rankCache memoizes RankedHosts results per (task, preference) key,
// validated by the repository generations that feed a ranking: the
// resource epoch (workload updates, failures, host churn), the task's
// own performance record (new measurements, parameter changes), and the
// constraints write counter (install/remove). A lookup whose generations
// all match is a lock-free-read cache hit; any repository write that
// could change the ranking bumps a generation and forces one
// recomputation, which concurrent rounds share singleflight-style: the
// per-entry mutex lets exactly one goroutine recompute while the rest
// wait for its result.
type rankCache struct {
	entries sync.Map     // rankKey -> *rankEntry; lock-free lookups
	count   atomic.Int64 // approximate entry count for the eviction cap

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// rankKey identifies a cached ranking. Eligibility depends on the task's
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

// rankResult is one immutable memoized ranking plus the generations and
// predictor constants it was computed from. Readers share ranked and
// names (the ranked hosts' names, in order: a host choice is a prefix of
// it) without copying. pred is part of validity because Predictor fields
// are exported tuning knobs (the blend ablation flips them at runtime):
// a constants change must recompute, not serve stale rankings.
type rankResult struct {
	resGen  uint64
	taskGen uint64
	consGen uint64
	pred    predict.Predictor
	ranked  []RankedHost
	names   []string
}

// rankEntry is one cache slot. Hits are a lock-free pointer load plus
// three generation compares; mu serializes only the recompute, so
// concurrent rounds missing on the same task share one Predict sweep
// instead of convoying every reader behind it.
type rankEntry struct {
	mu  sync.Mutex // singleflight recompute only
	cur atomic.Pointer[rankResult]
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
