package vdce

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/exec"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/workload"
)

// installEverywhere registers a synthetic graph's tasks on every host
// of every site.
func installEverywhere(t testing.TB, env *Environment, w *workload.Graph) {
	t.Helper()
	for _, site := range env.TB.Sites {
		hosts := make([]string, len(site.Hosts))
		for i, h := range site.Hosts {
			hosts[i] = h.Name
		}
		if err := w.Install(site.Repo, hosts); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenGraphs builds the 36 applications the placement digest covers:
// 12 C3I pipelines of 6-8 tasks, 4 linear solvers, and every synthetic
// DAG family at 40 tasks under seeds 1-4, installed on every site.
func goldenGraphs(t *testing.T, env *Environment) (graphs []*afg.Graph) {
	t.Helper()
	free := func(g *afg.Graph, err error) *afg.Graph {
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range g.Tasks {
			task.Props.MachineType = ""
		}
		return g
	}
	for i := 0; i < 12; i++ {
		graphs = append(graphs, free(tasklib.BuildC3IPipeline(6+i%3, int64(i)+1)))
	}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, free(tasklib.BuildLinearEquationSolver(32+16*i, int64(2*i)+1)))
	}
	for _, fam := range workload.Families() {
		for seed := int64(1); seed <= 4; seed++ {
			w, err := fam.Gen(workload.Params{Tasks: 40, CCR: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			// Synthetic task names repeat across families and seeds;
			// keep each graph's catalog entries (and base times) its own.
			w.G.Name = fmt.Sprintf("%s-%d", fam.Name, seed)
			for _, task := range w.G.Tasks {
				task.Name = w.G.Name + "/" + task.Name
			}
			installEverywhere(t, env, w)
			graphs = append(graphs, w.G)
		}
	}
	return graphs
}

// TestScheduleGoldenDigest pins the scheduler's placements: the sha256
// over the JSON of 432 allocation tables — three testbeds, 36 graphs,
// K 0..3 — captured before the round was rewritten over slices. The
// round may get cheaper; it may not place anything differently.
func TestScheduleGoldenDigest(t *testing.T) {
	const want = "008b8fc1cb44d985427925a1467ca6c51c3d9754bafdb8e5f8c4301b760521b9"
	h := sha256.New()
	tables := 0
	for _, seed := range []int64{41, 7, 99} {
		env := newEnv(t, Config{Testbed: testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: seed, BaseLoadMax: 0.2}})
		for _, g := range goldenGraphs(t, env) {
			for k := 0; k <= 3; k++ {
				table, err := env.Schedule(g, k)
				if err != nil {
					t.Fatalf("seed %d, %s, K=%d: %v", seed, g.Name, k, err)
				}
				data, err := json.Marshal(table)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(data)
				tables++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); tables != 432 || got != want {
		t.Fatalf("%d tables, digest %s; want 432 tables, digest %s", tables, got, want)
	}
}

// TestRescheduleGoldenDigest pins the Application Controller's
// rescheduling answers: the sha256 over the placement (or error text)
// exec.NewRescheduler returns for every C3I and LES task — the 2-node
// parallel ones included — on a 2- and a 3-site testbed, under
// exclusion sets of none, one, half, all but one and all of the hosts,
// in three passes with three digests: no host quarantined, the hosts
// unconstrained requests prefer quarantined, and every host quarantined.
// The first digest was captured while the rescheduler still carried its
// own copy of Fig. 3; asking LocalSite.ChooseAt instead may not place
// anything differently. Quarantine is the repository's host status,
// the one verdict the rescheduler reads, and it is not advisory: the
// second pass differs from the old breaker-filtered one in exactly the
// 45 requests whose only unexcluded candidates were quarantined, which
// now error instead of falling back onto a quarantined host, and with
// every host quarantined every request errors.
func TestRescheduleGoldenDigest(t *testing.T) {
	want := [3]string{
		"855efc7055f9de7b16550563d4426064f546529936f37b1b8f3d0cdcd2260349",
		"95c9d01981ebc08cc0a028ccc6c1ee1e7d9701db425ab94a6c8fcbadebdb4507",
		"e9bac1ba618e5aa791d4420778098196d61a65be17c8d7c3dca9daa8c36525d7",
	}
	digests := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
	answers := 0
	for _, sites := range []int{2, 3} {
		env := newEnv(t, Config{Testbed: testbed.Config{Sites: sites, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2}})
		all := env.TB.HostNames()
		quarantine := func(host string) {
			for _, site := range env.TB.Sites {
				if _, ok := site.Repo.Resources.View(host); ok {
					if err := site.Repo.Resources.SetStatus(host, repository.HostQuarantined); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		c3i, err := tasklib.BuildC3IPipeline(6, 1)
		if err != nil {
			t.Fatal(err)
		}
		les, err := tasklib.BuildLinearEquationSolver(32, 1)
		if err != nil {
			t.Fatal(err)
		}
		free, err := tasklib.BuildLinearEquationSolver(32, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range free.Tasks {
			task.Props.MachineType = ""
		}
		resched := exec.NewRescheduler(env.Sites)
		var preferred []string
		for _, g := range []*afg.Graph{c3i, les, free} {
			for _, task := range g.Tasks {
				if p, err := resched(g, task.ID, nil); err == nil {
					preferred = append(preferred, p.Hosts[0])
				}
			}
		}
		for pass, h := range digests {
			switch pass {
			case 1:
				// The hosts unconstrained requests prefer.
				for _, host := range preferred {
					quarantine(host)
				}
			case 2:
				for _, host := range all {
					quarantine(host)
				}
			}
			for _, g := range []*afg.Graph{c3i, les, free} {
				for _, task := range g.Tasks {
					for _, n := range []int{0, 1, len(all) / 2, len(all) - 1, len(all)} {
						for _, from := range []int{0, len(all) / 3} {
							exclude := make([]string, n)
							for i := range exclude {
								exclude[i] = all[(from+i)%len(all)]
							}
							p, err := resched(g, task.ID, exclude)
							if err != nil {
								h.Write([]byte(err.Error()))
							} else {
								data, err := json.Marshal(p)
								if err != nil {
									t.Fatal(err)
								}
								h.Write(data)
							}
							answers++
						}
					}
				}
			}
		}
	}
	if answers != 1080 {
		t.Fatalf("%d answers, want 1080", answers)
	}
	for pass, h := range digests {
		if got := hex.EncodeToString(h.Sum(nil)); got != want[pass] {
			t.Errorf("pass %d digest %s, want %s", pass, got, want[pass])
		}
	}
}

// TestQuarantinedHostGetsNoFirstPlacement: a host the failure detector
// quarantines leaves the repository's up list, so a fresh schedule —
// Fig. 3's first placement, not only a reschedule — places nothing on
// it; once OpenTimeout has passed, the next round lists it up again for
// probe work and the schedule is the one it was before the quarantine.
func TestQuarantinedHostGetsNoFirstPlacement(t *testing.T) {
	const openTimeout = 10 * time.Second
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2},
		Detect:  detect.Config{SuspicionTimeout: time.Second, OpenTimeout: openTimeout},
	})
	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
	schedule := func() (*core.AllocationTable, []byte) {
		t.Helper()
		table, err := env.Schedule(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(table)
		if err != nil {
			t.Fatal(err)
		}
		return table, data
	}
	// Every host heartbeats each round: only the outcomes can quarantine.
	tick := func(now time.Time) {
		t.Helper()
		for _, h := range env.TB.HostNames() {
			env.Detector.Observe(h, now)
		}
		if _, err := env.Detector.Tick(now); err != nil {
			t.Fatal(err)
		}
	}

	before, want := schedule()
	victim := before.Entries[0].Hosts[0]
	t0 := time.Unix(1000, 0)
	tick(t0)
	for i := 0; i < 4; i++ { // the default MinSamples, all failures
		env.Detector.RecordOutcome(victim, false)
	}
	tick(t0.Add(time.Second))
	if hs, _ := env.Detector.Health(victim); hs.Phase != detect.Open {
		t.Fatalf("%s not quarantined after four failed outcomes: %+v", victim, hs)
	}
	table, _ := schedule()
	for _, e := range table.Entries {
		for _, h := range e.Hosts {
			if h == victim {
				t.Errorf("task %d (%s) placed on the quarantined host %s", e.Task, e.TaskName, h)
			}
		}
	}

	tick(t0.Add(time.Second + openTimeout))
	if hs, _ := env.Detector.Health(victim); hs.Phase != detect.HalfOpen {
		t.Fatalf("%s not half-open after OpenTimeout: %+v", victim, hs)
	}
	if _, got := schedule(); string(got) != string(want) {
		t.Errorf("schedule after the quarantine lifted:\n%s\nwant the one before it:\n%s", got, want)
	}
}

// roundCase is one graph a scheduling round is measured on, with its
// neighbor count and its allocation budget.
type roundCase struct {
	name   string
	g      *afg.Graph
	k      int
	budget float64
}

// roundCases builds an environment of four sites and the graphs a round
// is measured on: C3I-6 and LES-16 at K=2, a 200-task layered graph at
// K=3.
func roundCases(tb testing.TB) (*Environment, []roundCase) {
	env := newEnv(tb, Config{Testbed: testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2}})
	c3i, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		tb.Fatal(err)
	}
	les, err := tasklib.BuildLinearEquationSolver(16, 7)
	if err != nil {
		tb.Fatal(err)
	}
	for _, g := range []*afg.Graph{c3i, les} {
		for _, task := range g.Tasks {
			task.Props.MachineType = ""
		}
	}
	layered, err := workload.Layered(workload.Params{Tasks: 200, CCR: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	installEverywhere(tb, env, layered)
	return env, []roundCase{{"c3i-6", c3i, 2, 17}, {"les-16", les, 2, 17}, {"layered-200", layered.G, 3, 30}}
}

// TestScheduleRoundAllocBudget pins what one scheduling round costs
// once the rank cache is warm: 125 allocations for the 6-task C3I graph
// and 3,576 for a 200-task layered graph when the round ran over
// per-task maps. Over TaskID-indexed slices the count may not scale
// with the graph. One topological pass, one answer block for the
// multicast and the network's own nearest-site order took C3I from 27
// to 14, LES-16 from 33 to 14 (its parallel task's PredictSetAt keeps
// no measurement on the heap) and the layered graph from 35 to 27.
func TestScheduleRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	env, cases := roundCases(t)
	for _, tc := range cases {
		round := func() {
			if _, err := env.Schedule(tc.g, tc.k); err != nil {
				t.Fatal(err)
			}
		}
		round() // fill the rank cache
		allocs := testing.AllocsPerRun(50, round)
		t.Logf("Schedule(%s, %d tasks, K=%d): %.0f allocs/round", tc.g.Name, len(tc.g.Tasks), tc.k, allocs)
		if allocs > tc.budget {
			t.Errorf("a round over %s allocates %.0f objects, budget %.0f", tc.g.Name, allocs, tc.budget)
		}
	}
}

// BenchmarkScheduleRound times one warm scheduling round (the rank
// cache filled) over each graph of TestScheduleRoundAllocBudget: the
// round's repeatable CPU cost.
func BenchmarkScheduleRound(b *testing.B) {
	env, cases := roundCases(b)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			if _, err := env.Schedule(tc.g, tc.k); err != nil { // fill the rank cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := env.Schedule(tc.g, tc.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPerfWriteBackDropsAreCounted: a measurement no site can apply —
// unknown task, negative elapsed time, a host no site owns — moves
// vdce_taskperf_dropped_total on the live write-back and on the boot
// replay alike, and the replay lands as one epoch per site: every task
// it touched carries the same generation.
func TestPerfWriteBackDropsAreCounted(t *testing.T) {
	cfg := Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 2, Seed: 19}, StoreDir: t.TempDir()}
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host := env.TB.Sites[1].Hosts[0].Name
	at := time.Now()
	env.Engine.Record([]repository.Execution{
		{Task: "Spin", Host: host, Elapsed: 3 * time.Millisecond, At: at},
		{Task: "Checksum", Host: host, Elapsed: 5 * time.Millisecond, At: at},
		{Task: "No_Such_Task", Host: host, Elapsed: time.Millisecond, At: at},
		{Task: "Spin", Host: host, Elapsed: -time.Millisecond, At: at},
		{Task: "Spin", Host: "host-of-no-site", Elapsed: time.Millisecond, At: at},
	})
	if got := env.obsM.perfDropped.Value(); got != 3 {
		t.Fatalf("live write-back: vdce_taskperf_dropped_total = %v, want 3", got)
	}
	env.Close()

	// Only estimates are stored, so the same testbed drops nothing at
	// boot.
	env = newEnv(t, cfg)
	if got := env.obsM.perfDropped.Value(); got != 0 {
		t.Fatalf("boot replay: vdce_taskperf_dropped_total = %v, want 0", got)
	}
	perf := env.Sites[1].Repo.TaskPerf
	if d, ok := perf.MeasuredTime("Checksum", host); !ok || d != 5*time.Millisecond {
		t.Fatalf("replayed Checksum estimate on %s = %v (found %v)", host, d, ok)
	}
	spin, _ := perf.TaskGeneration("Spin")
	sum, _ := perf.TaskGeneration("Checksum")
	idle, _ := perf.TaskGeneration("Pass_Through")
	if spin != sum || spin <= idle {
		t.Fatalf("replay generations: Spin %d, Checksum %d, untouched %d; want one shared, newer epoch", spin, sum, idle)
	}
	env.Close()

	// A testbed without the measured host drops its two estimates.
	cfg.Testbed.Sites = 1
	env = newEnv(t, cfg)
	if got := env.obsM.perfDropped.Value(); got != 2 {
		t.Fatalf("boot replay on a smaller testbed: vdce_taskperf_dropped_total = %v, want 2", got)
	}
}

// TestPerfEstimatesSurviveRestart: what prediction reads survives a
// restart. A host measured once, long before another host of the same
// task was measured many times, keeps its estimate through compaction;
// and after a random stream of write-backs with compactions between them
// and a crash, every (task, host) estimate equals its value before the
// crash, bit for bit.
func TestPerfEstimatesSurviveRestart(t *testing.T) {
	cfg := Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 19}, StoreDir: t.TempDir()}
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := env.TB.Sites[0].Hosts[0].Name, env.TB.Sites[0].Hosts[1].Name
	env.Engine.Record([]repository.Execution{{Task: "LU_Decomposition", Host: a, Elapsed: 7 * time.Second}})
	for i := 0; i < 128; i++ {
		env.Engine.Record([]repository.Execution{{Task: "LU_Decomposition", Host: b, Elapsed: time.Second}})
	}
	env.Close()
	env, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perf := env.Sites[0].Repo.TaskPerf
	if d, ok := perf.MeasuredTime("LU_Decomposition", a); !ok || d != 7*time.Second {
		t.Fatalf("host A's estimate after a restart = %v (found %v), want 7s", d, ok)
	}
	if d, ok := perf.MeasuredTime("LU_Decomposition", b); !ok || d != time.Second {
		t.Fatalf("host B's estimate after a restart = %v (found %v), want 1s", d, ok)
	}

	tasks := []string{"LU_Decomposition", "Spin", "Checksum", "Pass_Through"}
	var hosts []string
	for _, site := range env.TB.Sites {
		for _, h := range site.Hosts {
			hosts = append(hosts, h.Name)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 600; i++ {
		recs := make([]repository.Execution, 1+rng.Intn(6))
		for j := range recs {
			recs[j] = repository.Execution{Task: tasks[rng.Intn(len(tasks))], Host: hosts[rng.Intn(len(hosts))],
				Elapsed: time.Duration(rng.Int63n(int64(time.Second)))}
		}
		env.Engine.Record(recs)
		if rng.Intn(100) == 0 {
			if err := env.Store.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	type pair struct{ task, host string }
	want := map[pair]time.Duration{}
	for _, site := range env.Sites {
		for _, task := range tasks {
			for _, h := range hosts {
				if d, ok := site.Repo.TaskPerf.MeasuredTime(task, h); ok {
					want[pair{task, h}] = d
				}
			}
		}
	}
	if err := env.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	env.Crash()
	env = newEnv(t, cfg)
	got := map[pair]time.Duration{}
	for _, site := range env.Sites {
		for _, task := range tasks {
			for _, h := range hosts {
				if d, ok := site.Repo.TaskPerf.MeasuredTime(task, h); ok {
					got[pair{task, h}] = d
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after a crash differ from before it:\ngot  %v\nwant %v", got, want)
	}
}
