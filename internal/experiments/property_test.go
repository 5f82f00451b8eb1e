package experiments

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vdce/internal/sim"
	"vdce/internal/workload"
)

// Property: every scheduling policy produces a valid allocation table
// whose simulation satisfies the precedence and host-exclusivity
// invariants, across random DAG families, sizes, and CCRs. This is the
// system-level safety net above the per-package unit tests.
func TestAllPoliciesProduceValidSchedulesProperty(t *testing.T) {
	families := workload.Families()
	f := func(seed int64, famRaw, szRaw, ccrRaw uint8) bool {
		fam := families[int(famRaw)%len(families)]
		tasks := int(szRaw)%40 + 2
		ccr := []float64{0, 0.5, 5}[int(ccrRaw)%3]
		c, err := newCluster(2, 3, seed)
		if err != nil {
			return false
		}
		w, err := fam.Gen(workload.Params{Tasks: tasks, CCR: ccr, Seed: seed})
		if err != nil {
			return false
		}
		if err := c.install(w); err != nil {
			return false
		}
		for _, pol := range Policies {
			table, err := pol.Schedule(c.round(1, seed), w)
			if err != nil {
				return false
			}
			if err := table.Validate(w.G); err != nil {
				return false
			}
			res, err := sim.Run(w.G, table, c.net)
			if err != nil {
				return false // sim.Run re-checks both invariants internally
			}
			if res.Makespan <= 0 {
				return false
			}
			// Makespan is bounded below by the largest single placement.
			var longest time.Duration
			for _, e := range table.Entries {
				if e.Predicted > longest {
					longest = e.Predicted
				}
			}
			if res.Makespan < longest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}
