package vdce

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/breaker"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/workload"
)

// installEverywhere registers a synthetic graph's tasks on every host
// of every site.
func installEverywhere(t *testing.T, env *Environment, w *workload.Graph) {
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
// with no breakers, the preferred host's breaker open, and every
// breaker open (the advisory fallback). Captured while the rescheduler
// still carried its own copy of Fig. 3; asking LocalSite.ChooseAt
// instead may not place anything differently.
func TestRescheduleGoldenDigest(t *testing.T) {
	const want = "4f0d88ac23c08ac61654fdeefecba47d9563bab00fbb2876c1b40773359a024f"
	h := sha256.New()
	answers := 0
	for _, sites := range []int{2, 3} {
		env := newEnv(t, Config{Testbed: testbed.Config{Sites: sites, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2}})
		all := env.TB.HostNames()
		oneOpen := breaker.New(breaker.Config{MinSamples: 1})
		allOpen := breaker.New(breaker.Config{MinSamples: 1})
		for _, host := range all {
			allOpen.ReportFailure(host)
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
		plain := exec.NewRescheduler(env.Sites)
		for _, g := range []*afg.Graph{c3i, les, free} {
			for _, task := range g.Tasks {
				// The host an unconstrained request prefers is the one
				// whose breaker the second rescheduler sees open.
				if p, err := plain(g, task.ID, nil); err == nil {
					oneOpen.ReportFailure(p.Hosts[0])
				}
			}
		}
		for _, resched := range []func(*afg.Graph, afg.TaskID, []string) (*core.Placement, error){
			plain,
			exec.NewRescheduler(env.Sites, exec.WithBreakers(oneOpen)),
			exec.NewRescheduler(env.Sites, exec.WithBreakers(allOpen)),
		} {
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
	if got := hex.EncodeToString(h.Sum(nil)); answers != 1080 || got != want {
		t.Fatalf("%d answers, digest %s; want 1080 answers, digest %s", answers, got, want)
	}
}

// TestScheduleRoundAllocBudget pins what one scheduling round costs
// once the rank cache is warm: 125 allocations for the 6-task C3I graph
// and 3,576 for a 200-task layered graph when the round ran over
// per-task maps. Over TaskID-indexed slices the count may not scale
// with the graph.
func TestScheduleRoundAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2}})
	c3i, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range c3i.Tasks {
		task.Props.MachineType = ""
	}
	layered, err := workload.Layered(workload.Params{Tasks: 200, CCR: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	installEverywhere(t, env, layered)
	for _, tc := range []struct {
		g      *afg.Graph
		k      int
		budget float64
	}{{c3i, 2, 40}, {layered.G, 3, 64}} {
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
	env.Engine.Record([]protocol.ExecutionRecord{
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

	env = newEnv(t, cfg)
	if got := env.obsM.perfDropped.Value(); got != 3 {
		t.Fatalf("boot replay: vdce_taskperf_dropped_total = %v, want 3", got)
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
}
