package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
)

// statsDelta runs f and returns the counter movement it caused.
func statsDelta(s *LocalSite, f func()) RankCacheStats {
	before := s.CacheStats()
	f()
	after := s.CacheStats()
	return RankCacheStats{
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Invalidations: after.Invalidations - before.Invalidations,
	}
}

func TestRankedHostsCacheHitOnUnchangedState(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	first := rankedAt(s, s.Snapshot(), task)
	if len(first) != 2 {
		t.Fatalf("ranked %d hosts, want 2", len(first))
	}
	d := statsDelta(s, func() {
		second := rankedAt(s, s.Snapshot(), task)
		if len(second) != len(first) || second[0] != first[0] {
			t.Fatalf("cached ranking differs: %v vs %v", second, first)
		}
	})
	if d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("unchanged-state lookup: %+v, want pure hit", d)
	}
}

func TestWorkloadUpdateInvalidatesRanking(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1.5},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	if got := rankedAt(s, s.Snapshot(), task); got[0].Name != "a" {
		t.Fatalf("baseline pick %v", got)
	}
	// Load a heavily: the cached ranking must not survive the update.
	if err := s.Repo.Resources.UpdateWorkload("a", repository.WorkloadSample{
		CPULoad: 0.95, AvailMemBytes: 1 << 30, Time: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(s, func() {
		if got := rankedAt(s, s.Snapshot(), task); got[0].Name != "b" {
			t.Fatalf("stale ranking served after workload update: %v", got)
		}
	})
	if d.Misses != 1 || d.Invalidations != 1 {
		t.Fatalf("workload update: %+v, want one invalidating miss", d)
	}
}

func TestStatusDownInvalidatesRanking(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	rankedAt(s, s.Snapshot(), task) // warm
	if _, err := s.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: "a", Status: repository.HostDown}}); err != nil {
		t.Fatal(err)
	}
	got := rankedAt(s, s.Snapshot(), task)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("downed host still ranked: %v", got)
	}
	// Recovery must invalidate again.
	if _, err := s.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: "a", Status: repository.HostUp}}); err != nil {
		t.Fatal(err)
	}
	if got := rankedAt(s, s.Snapshot(), task); len(got) != 2 {
		t.Fatalf("recovered host missing: %v", got)
	}
}

// TestMeasurementInvalidatesOnlyItsTask: a write-back invalidates no
// cached order. The next choice blends the new measurement in, so it
// moves the measured task off the host that ran badly on a hit, and an
// unmeasured task's choice stays where it was.
func TestMeasurementInvalidatesOnlyItsTask(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1},
	})
	gA, idA := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	gB, idB := oneTaskGraph(t, "LU_Decomposition", afg.Properties{})
	taskA, taskB := gA.Task(idA), gB.Task(idB)
	for _, task := range []*afg.Task{taskA, taskB} { // warm both
		if c := s.ChooseAt(s.Snapshot(), task, nil); c.Hosts[0] != "a" {
			t.Fatalf("%s: baseline pick %v", task.Name, c.Hosts)
		}
	}

	if _, err := s.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: "Matrix_Multiplication", Host: "a", Elapsed: time.Hour, At: time.Now()}}, nil); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(s, func() {
		snap := s.Snapshot()
		c := s.ChooseAt(snap, taskA, nil)
		if c.Hosts[0] != "b" {
			t.Fatalf("measured task still placed on %v", c.Hosts)
		}
		if want, _ := s.PredictSetAt(snap, taskA, []string{"b"}); c.Predicted != want {
			t.Fatalf("measured task predicted %v, want %v", c.Predicted, want)
		}
	})
	if d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("measured task: %+v, want a pure hit", d)
	}
	d = statsDelta(s, func() {
		if c := s.ChooseAt(s.Snapshot(), taskB, nil); c.Hosts[0] != "a" {
			t.Fatalf("unrelated task moved to %v", c.Hosts)
		}
	})
	if d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("unrelated task: %+v, want a pure hit", d)
	}
}

// TestParallelChoiceResortsOnlyWhenItsLeadMoves: a parallel choice takes
// the cached order's prefix while its n best still lead it. A
// measurement that reorders hosts behind the prefix costs nothing; one
// that moves a host into the prefix costs one re-sort, which is
// published, so the next choice hits again.
func TestParallelChoiceResortsOnlyWhenItsLeadMoves(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 4}, {name: "b", speed: 3}, {name: "c", speed: 2}, {name: "d", speed: 1.5},
	})
	g, id := oneTaskGraph(t, "LU_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 2})
	task := g.Task(id)
	choose := func() HostChoice { return s.ChooseAt(s.Snapshot(), task, nil) }
	record := func(host string, elapsed time.Duration) {
		t.Helper()
		if _, err := s.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: task.Name, Host: host, Elapsed: elapsed}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c := choose(); strings.Join(c.Hosts, ",") != "a,b" {
		t.Fatalf("baseline pick %v", c.Hosts)
	}
	base := rankedAt(s, s.Snapshot(), task)

	// d overtakes c, behind the prefix: the prefix still leads.
	record("d", base[2].Single/2)
	if d := statsDelta(s, func() {
		if c := choose(); strings.Join(c.Hosts, ",") != "a,b" {
			t.Fatalf("prefix moved to %v", c.Hosts)
		}
	}); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("reorder behind the prefix: %+v, want a pure hit", d)
	}
	// c runs fastest of all: it enters the prefix, first.
	record("c", time.Microsecond)
	if d := statsDelta(s, func() {
		if c := choose(); strings.Join(c.Hosts, ",") != "c,a" {
			t.Fatalf("re-sorted prefix %v, want c,a", c.Hosts)
		}
	}); d.Hits != 0 || d.Misses != 1 || d.Invalidations != 1 {
		t.Fatalf("reorder into the prefix: %+v, want one invalidating miss", d)
	}
	if d := statsDelta(s, func() { choose() }); d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("after the re-sort: %+v, want a pure hit", d)
	}
}

func TestPredictorChangeInvalidatesRanking(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	first := rankedAt(s, s.Snapshot(), task)
	// Tuning an exported predictor constant at runtime (as the blend
	// ablation does) must not be served stale cached rankings.
	s.Oracle.P.BaseOpsPerSec *= 2
	d := statsDelta(s, func() {
		second := rankedAt(s, s.Snapshot(), task)
		if second[0].Single >= first[0].Single {
			t.Fatalf("doubling throughput did not shrink prediction: %v vs %v", second[0], first[0])
		}
	})
	if d.Misses != 1 {
		t.Fatalf("predictor change: %+v, want a recompute", d)
	}
}

func TestWriteOnOneSiteLeavesOtherSiteCached(t *testing.T) {
	s1 := mkSite(t, "s1", []hostSpec{{name: "s1-a", speed: 1}, {name: "s1-b", speed: 2}})
	s2 := mkSite(t, "s2", []hostSpec{{name: "s2-a", speed: 1}})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	rankedAt(s1, s1.Snapshot(), task)
	rankedAt(s2, s2.Snapshot(), task)
	if err := s1.Repo.Resources.UpdateWorkload("s1-a", repository.WorkloadSample{
		CPULoad: 0.5, AvailMemBytes: 1 << 30, Time: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(s2, func() { rankedAt(s2, s2.Snapshot(), task) })
	if d.Hits != 1 || d.Misses != 0 {
		t.Fatalf("cross-site invalidation leak: %+v, want pure hit on s2", d)
	}
}

func TestConstraintChangeInvalidatesRanking(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 4},
		{name: "b", speed: 1},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	if got := rankedAt(s, s.Snapshot(), task); got[0].Name != "a" {
		t.Fatalf("baseline pick %v", got)
	}
	// Uninstalling the task from the fast host must drop it immediately.
	s.Repo.Constraints.RemoveHost("a")
	got := rankedAt(s, s.Snapshot(), task)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("stale ranking after constraint change: %v", got)
	}
}

func TestPreferencesGetDistinctCacheEntries(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "sun", speed: 1, arch: "SUN", os: "Solaris"},
		{name: "sgi", speed: 8, arch: "SGI", os: "IRIX"},
	})
	gAny, idAny := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	gSun, idSun := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{MachineType: "SUN Solaris"})

	// Same task name, different preferences: both must be computed (two
	// misses) and neither may serve the other's host set.
	anyRank := rankedAt(s, s.Snapshot(), gAny.Task(idAny))
	sunRank := rankedAt(s, s.Snapshot(), gSun.Task(idSun))
	if len(anyRank) != 2 {
		t.Fatalf("unrestricted ranking %v", anyRank)
	}
	if len(sunRank) != 1 || sunRank[0].Name != "sun" {
		t.Fatalf("machine-type ranking leaked across preference key: %v", sunRank)
	}
	st := s.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 distinct entries", st.Misses)
	}
}

// TestRankedHostsConcurrentRoundsNeverServeStale hammers one site with
// concurrent scheduler rounds while a writer flips status, pushes
// workloads, and records measurements. Run under -race this checks the
// lock-free read path; the serial asserts after each write prove a
// completed write is immediately visible (no stale ranking outlives the
// generation bump).
func TestRankedHostsConcurrentRoundsNeverServeStale(t *testing.T) {
	hosts := []hostSpec{
		{name: "h0", speed: 1}, {name: "h1", speed: 2},
		{name: "h2", speed: 3}, {name: "h3", speed: 4},
	}
	s := mkSite(t, "s1", hosts)
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	task := g.Task(id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sel, err := s.HostSelection(g)
				if err != nil {
					t.Error(err)
					return
				}
				// A round may see the pre- or post-write epoch, but its
				// choice must be a host that exists.
				if c := sel[id]; c.Err == "" && len(c.Hosts) == 0 {
					t.Error("empty choice without error")
					return
				}
			}
		}()
	}

	for i := 0; i < 200; i++ {
		victim := hosts[i%len(hosts)].name
		switch i % 3 {
		case 0:
			if _, err := s.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: victim, Status: repository.HostDown}}); err != nil {
				t.Fatal(err)
			}
			// The write completed: a fresh ranking must exclude victim.
			for _, r := range rankedAt(s, s.Snapshot(), task) {
				if r.Name == victim {
					t.Fatalf("stale ranking: %s served after a status round set it down", victim)
				}
			}
			if _, err := s.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: victim, Status: repository.HostUp}}); err != nil {
				t.Fatal(err)
			}
		case 1:
			load := float64(i%10) / 10
			if err := s.Repo.Resources.UpdateWorkload(victim, repository.WorkloadSample{
				CPULoad: load, AvailMemBytes: 1 << 30, Time: time.Now(),
			}); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := s.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: "Matrix_Multiplication", Host: victim, Elapsed: time.Duration(i+1) * time.Millisecond, At: time.Now()}}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Final serial check: every host is up again; ranking covers all.
	if got := rankedAt(s, s.Snapshot(), task); len(got) != len(hosts) {
		t.Fatalf("final ranking has %d hosts, want %d", len(got), len(hosts))
	}
}

// TestRankCacheSteadyStateHitRatio runs a soak of many scheduling rounds,
// each followed by its run's write-back of a measured time on the host
// it chose, with an occasional monitor write: the cache must serve the
// overwhelming majority of lookups from its kept orders.
func TestRankCacheSteadyStateHitRatio(t *testing.T) {
	var hosts []hostSpec
	for i := 0; i < 8; i++ {
		hosts = append(hosts, hostSpec{name: fmt.Sprintf("h%d", i), speed: float64(i%4 + 1)})
	}
	s := mkSite(t, "s1", hosts)
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})

	const rounds = 500
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		if i%100 == 50 { // a rare monitor write
			if err := s.Repo.Resources.UpdateWorkload("h0", repository.WorkloadSample{
				CPULoad: 0.1, AvailMemBytes: 1 << 30, Time: time.Now(),
			}); err != nil {
				t.Fatal(err)
			}
		}
		sel, err := s.HostSelection(g)
		if err != nil {
			t.Fatal(err)
		}
		// The run took its prediction give or take a quarter.
		c := sel[id]
		elapsed := time.Duration(float64(c.Predicted) * (0.75 + rng.Float64()/2))
		if _, err := s.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: g.Task(id).Name, Host: c.Hosts[0], Elapsed: elapsed}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if ratio := float64(st.Hits) / float64(st.Hits+st.Misses); ratio < 0.95 {
		t.Fatalf("steady-state hit ratio %.3f (%+v), want >= 0.95", ratio, st)
	}
	if st.Invalidations == 0 {
		t.Fatal("soak produced no invalidations; updates not exercised")
	}
}
