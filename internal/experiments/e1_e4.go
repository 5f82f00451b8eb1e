package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/sim"
	"vdce/internal/tasklib"
	"vdce/internal/workload"
)

// E1LESBuild reproduces Fig. 1: the Linear Equation Solver application
// flow graph with its task-properties windows. The table lists every
// task exactly as the editor would render it; the notes carry the two
// properties windows the figure shows.
func E1LESBuild(n int) (*Table, error) {
	g, err := tasklib.BuildLinearEquationSolver(n, 1)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E1",
		Title:  fmt.Sprintf("Fig. 1 — Linear Equation Solver AFG (n=%d)", n),
		Header: []string{"task", "name", "mode", "nodes", "machine-pref", "inputs", "outputs"},
	}
	for _, task := range g.Tasks {
		mt := task.Props.MachineType
		if mt == "" {
			mt = afg.AnyMachine
		}
		ins := make([]string, len(task.Props.Inputs))
		for i, f := range task.Props.Inputs {
			ins[i] = f.String()
		}
		outs := make([]string, len(task.Props.Outputs))
		for i, f := range task.Props.Outputs {
			outs[i] = f.String()
		}
		t.Add(int(task.ID), task.Name, task.Props.Mode.String(), task.Props.Nodes,
			mt, strings.Join(ins, " "), strings.Join(outs, " "))
	}
	for _, name := range []string{"LU_Decomposition", "Matrix_Multiplication"} {
		for _, task := range g.Tasks {
			if task.Name == name {
				t.Note("properties window:\n%s", task.PropertiesWindow())
			}
		}
	}
	t.Note("edges: %d, entry tasks: %d, exit tasks: %d", len(g.Edges), len(g.Entries()), len(g.Exits()))
	return t, nil
}

// E2Params sizes the scheduler-comparison sweep.
type E2Params struct {
	Sites, HostsPerSite int
	TaskCounts          []int
	CCRs                []float64
	Seed                int64
}

// DefaultE2 is the full sweep `vdce-bench -run E2` prints: five DAG
// families x {20, 100, 300} tasks x CCR {0.1, 1, 10} on 4 sites of 8
// hosts, seed 7.
func DefaultE2() E2Params {
	return E2Params{
		Sites: 4, HostsPerSite: 8,
		TaskCounts: []int{20, 100, 300},
		CCRs:       []float64{0.1, 1, 10},
		Seed:       7,
	}
}

// e2Cells builds each cell of the sweep on a fresh cluster and hands it
// to cell with the Round E2 schedules on: Fig. 2 multicasts to every
// other site.
func e2Cells(p E2Params, cell func(fam string, n int, ccr float64, r Round, w *workload.Graph) error) error {
	for _, fam := range workload.Families() {
		for _, n := range p.TaskCounts {
			for _, ccr := range p.CCRs {
				c, err := newCluster(p.Sites, p.HostsPerSite, p.Seed)
				if err != nil {
					return err
				}
				w, err := fam.Gen(workload.Params{Tasks: n, CCR: ccr, Seed: p.Seed})
				if err != nil {
					return err
				}
				if err := c.install(w); err != nil {
					return err
				}
				if err := cell(fam.Name, n, ccr, c.round(p.Sites-1, p.Seed), w); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// E2Schedulers sets the paper's Site Scheduler (Fig. 2 + §3, the vdce
// column) against every other policy in Policies, one column each.
// Cells are simulated makespans in milliseconds; the last columns are
// ratios relative to the VDCE scheduler. The published scheduler does
// not give the shortest schedule: of DefaultE2's 45 cells, vdce+q beats
// it in 40, min-min in 38, round-robin in 21, random in 11, its own
// FIFO ablation in 10 and local in none.
func E2Schedulers(p E2Params) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Site Scheduler vs baselines — simulated schedule length (ms)",
		Header: []string{"family", "tasks", "ccr"},
	}
	for _, pol := range Policies {
		t.Header = append(t.Header, pol.Name)
	}
	t.Header = append(t.Header, "rand/vdce", "rr/vdce")
	col := func(name string) int {
		return slices.IndexFunc(Policies, func(p Policy) bool { return p.Name == name })
	}
	iv, ir, irr := col("vdce"), col("random"), col("rrobin")
	if min(iv, ir, irr) < 0 {
		return nil, fmt.Errorf("experiments: E2 needs the vdce, random and rrobin policies")
	}
	var worseRandom, total int
	err := e2Cells(p, func(fam string, n int, ccr float64, r Round, w *workload.Graph) error {
		row := []any{fam, n, ccr}
		ms := make([]time.Duration, len(Policies))
		for i, pol := range Policies {
			table, err := pol.Schedule(r, w)
			if err != nil {
				return fmt.Errorf("%s: %w", pol.Name, err)
			}
			res, err := sim.Run(w.G, table, r.Net)
			if err != nil {
				return fmt.Errorf("%s: %w", pol.Name, err)
			}
			ms[i] = res.Makespan
			row = append(row, msCell(ms[i]))
		}
		vd, random, rrobin := ms[iv], ms[ir], ms[irr]
		t.Add(append(row, ratio(random, vd), ratio(rrobin, vd))...)
		total++
		if random >= vd {
			worseRandom++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Note("random >= vdce in %d/%d configurations", worseRandom, total)
	return t, nil
}

func msCell(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// E3HostSelection reproduces Fig. 3's quality: the host chosen from the
// resource-performance database versus the true best host, as the
// database ages (stale load information). Regret is the percent extra
// execution time of the chosen host over the oracle's.
func E3HostSelection(staleSteps []int, trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Host Selection vs oracle under stale load data",
		Header: []string{"staleness(steps)", "mean regret %", "max regret %", "exact picks"},
	}
	for _, steps := range staleSteps {
		c, err := newCluster(1, 16, seed)
		if err != nil {
			return nil, err
		}
		site := c.tb.Sites[0]
		w, err := workload.Layered(workload.Params{Tasks: trials, CCR: 0, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := c.install(w); err != nil {
			return nil, err
		}
		var regretSum, regretMax float64
		exact := 0
		for trial := 0; trial < trials; trial++ {
			// Refresh the DB, then advance the true loads beyond it.
			if err := c.tb.RefreshRepos(time.Unix(int64(trial), 0)); err != nil {
				return nil, err
			}
			for s := 0; s < steps; s++ {
				for _, h := range site.Hosts {
					h.Sample(time.Unix(int64(trial), int64(s)))
				}
			}
			task := w.G.Task(afg.TaskID(trial))
			single, singleID := singleTaskGraph(task)
			sel, err := c.sites[0].HostSelection(single)
			if err != nil {
				return nil, err
			}
			choice := sel[singleID]
			if choice.Err != "" {
				return nil, fmt.Errorf("E3: %s", choice.Err)
			}
			// True cost now: base time dilated by the live host state.
			trueCost := func(hostName string) (float64, error) {
				h, err := c.tb.Host(hostName)
				if err != nil {
					return 0, err
				}
				return w.Costs[task.ID].Seconds() * h.Dilation(), nil
			}
			chosen, err := trueCost(choice.Hosts[0])
			if err != nil {
				return nil, err
			}
			best := chosen
			for _, h := range site.Hosts {
				v, err := trueCost(h.Name)
				if err != nil {
					return nil, err
				}
				if v < best {
					best = v
				}
			}
			reg := (chosen - best) / best * 100
			regretSum += reg
			if reg > regretMax {
				regretMax = reg
			}
			if reg < 1e-9 {
				exact++
			}
		}
		t.Add(steps, regretSum/float64(trials), regretMax, fmt.Sprintf("%d/%d", exact, trials))
	}
	t.Note("regret grows with staleness; fresh data picks the true best host")
	return t, nil
}

// singleTaskGraph wraps one task in a standalone graph (with a fresh ID)
// so host selection evaluates just that task.
func singleTaskGraph(task *afg.Task) (*afg.Graph, afg.TaskID) {
	ng := afg.NewGraph("single")
	id := ng.AddTask(task.Name, task.Library, 0, task.OutPorts)
	props := task.Props
	props.Inputs = nil
	_ = ng.SetProps(id, props)
	return ng, id
}

// E4Locality reproduces the §3 claim that scheduling within
// nearest-neighbor sites decreases inter-task communication: on a
// latency ring of sites, the k-nearest multicast bounds how far tasks
// scatter. Reported per k: simulated makespan and inter-site traffic.
func E4Locality(ks []int, tasks int, ccr float64, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("k-nearest site locality (ring of 8 sites, %d tasks, CCR=%g)", tasks, ccr),
		Header: []string{"k", "makespan(ms)", "sites used", "intersite MB", "intersite transfers"},
	}
	for _, k := range ks {
		c, err := newCluster(8, 4, seed)
		if err != nil {
			return nil, err
		}
		c.net.Ring(10*time.Millisecond, 2e6)
		// The submitting site is busy (the situation that motivates
		// scheduling on neighbors at all): its hosts carry heavy load, so
		// remote capacity is worth the transfers.
		for _, h := range c.tb.Sites[0].Hosts {
			h.InjectLoad(0.85)
		}
		if err := c.tb.RefreshRepos(time.Unix(1, 0)); err != nil {
			return nil, err
		}
		w, err := workload.Layered(workload.Params{Tasks: tasks, CCR: ccr, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := c.install(w); err != nil {
			return nil, err
		}
		table, err := fig2(c.round(k, seed), w, core.LevelPriority)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(w.G, table, c.net)
		if err != nil {
			return nil, err
		}
		used := make(map[string]bool)
		for _, e := range table.Entries {
			used[e.Site] = true
		}
		t.Add(k, msCell(res.Makespan), len(used),
			fmt.Sprintf("%.2f", float64(res.InterSiteBytes)/1e6), res.InterSiteTransfers)
	}
	t.Note("the transfer term co-locates the whole graph on the best reachable site:")
	t.Note("larger k finds faster neighbors (makespan falls) while inter-site traffic stays minimal")
	return t, nil
}
