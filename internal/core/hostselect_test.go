package core

import (
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
)

// hostSpec describes one crafted test host.
type hostSpec struct {
	name  string
	speed float64
	load  float64
	arch  string
	os    string
}

// mkSite builds a LocalSite with the given hosts and the default task
// catalog installed everywhere.
func mkSite(t *testing.T, site string, hosts []hostSpec) *LocalSite {
	t.Helper()
	repo := repository.New(site)
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = h.name
		arch, osName := h.arch, h.os
		if arch == "" {
			arch = "SUN"
		}
		if osName == "" {
			osName = "Solaris"
		}
		if err := repo.Resources.AddHost(repository.ResourceInfo{
			HostName: h.name, ArchType: arch, OSType: osName,
			TotalMem: 1 << 30, Site: site, Group: site + "-g0",
			SpeedFactor: h.speed, CPULoad: h.load,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tasklib.Default().InstallInto(repo, names); err != nil {
		t.Fatal(err)
	}
	return NewLocalSite(repo)
}

// oneTaskGraph returns a single-task graph for the named library task.
func oneTaskGraph(t *testing.T, name string, props afg.Properties) (*afg.Graph, afg.TaskID) {
	t.Helper()
	g := afg.NewGraph("unit")
	spec, err := tasklib.Default().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	id := g.AddTask(name, spec.Library, spec.InPorts, spec.OutPorts)
	if err := g.SetProps(id, props); err != nil {
		t.Fatal(err)
	}
	return g, id
}

func TestHostSelectionPicksFastestIdleHost(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "slow", speed: 1, load: 0},
		{name: "fast", speed: 4, load: 0},
		{name: "loaded-fast", speed: 4, load: 0.9},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	c := sel[id]
	if c.Err != "" {
		t.Fatal(c.Err)
	}
	if len(c.Hosts) != 1 || c.Hosts[0] != "fast" {
		t.Fatalf("picked %v, want fast", c.Hosts)
	}
	if c.Predicted <= 0 {
		t.Fatal("no prediction")
	}
}

func TestHostSelectionRespectsMachineType(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "sun", speed: 1, arch: "SUN", os: "Solaris"},
		{name: "sgi", speed: 8, arch: "SGI", os: "IRIX"},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{MachineType: "SUN Solaris"})
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel[id].Hosts; len(got) != 1 || got[0] != "sun" {
		t.Fatalf("machine-type preference ignored: %v", got)
	}
}

func TestHostSelectionRespectsHostPin(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 8},
		{name: "b", speed: 1},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{Host: "b"})
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel[id].Hosts; len(got) != 1 || got[0] != "b" {
		t.Fatalf("host pin ignored: %v", got)
	}
	// Pinning to a host the site does not have yields an error choice.
	g2, id2 := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{Host: "elsewhere"})
	sel2, err := s.HostSelection(g2)
	if err != nil {
		t.Fatal(err)
	}
	if sel2[id2].Err == "" {
		t.Fatal("missing pin target accepted")
	}
}

func TestHostSelectionRespectsConstraintsAndStatus(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 4},
		{name: "b", speed: 1},
	})
	// Uninstall the task from the fast host: selection must fall to b.
	s.Repo.Constraints.RemoveHost("a")
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	sel, _ := s.HostSelection(g)
	if got := sel[id].Hosts; len(got) != 1 || got[0] != "b" {
		t.Fatalf("constraints ignored: %v", got)
	}
	// Mark b down too: no eligible host.
	if _, err := s.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: "b", Status: repository.HostDown}}); err != nil {
		t.Fatal(err)
	}
	sel2, _ := s.HostSelection(g)
	if sel2[id].Err == "" {
		t.Fatal("down host selected")
	}
}

func TestHostSelectionUnknownTask(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{{name: "a", speed: 1}})
	g := afg.NewGraph("x")
	id := g.AddTask("Not_A_Task", "none", 0, 1)
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sel[id].Err, "unknown task") {
		t.Fatalf("unknown task err = %q", sel[id].Err)
	}
}

func TestHostSelectionParallel(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 4},
		{name: "b", speed: 2},
		{name: "c", speed: 1},
	})
	// Matrix_Multiplication has a low serial fraction, so two nodes beat
	// one even after coordination overhead.
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{Mode: afg.Parallel, Nodes: 2})
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	c := sel[id]
	if c.Err != "" {
		t.Fatal(c.Err)
	}
	if len(c.Hosts) != 2 || c.Hosts[0] != "a" || c.Hosts[1] != "b" {
		t.Fatalf("parallel choice %v, want the two fastest", c.Hosts)
	}
	// Predicted must reflect the slower chosen machine: worse than a's
	// solo parallel time would be, better than sequential on b.
	soloSeq, err := s.PredictSet(g.Task(id), []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Predicted >= soloSeq {
		t.Fatalf("parallel on {a,b} (%v) not faster than sequential on b (%v)", c.Predicted, soloSeq)
	}
	// Asking for more nodes than the site owns errors out.
	g2, id2 := oneTaskGraph(t, "LU_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 9})
	sel2, _ := s.HostSelection(g2)
	if sel2[id2].Err == "" {
		t.Fatal("oversubscribed parallel request accepted")
	}
}

func TestParallelModeOnSequentialTaskDemotes(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{{name: "a", speed: 1}, {name: "b", speed: 1}})
	// Vector_Generate is not parallelizable; requesting parallel x2 must
	// demote to one host.
	g, id := oneTaskGraph(t, "Vector_Generate", afg.Properties{Mode: afg.Parallel, Nodes: 2})
	sel, err := s.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel[id].Hosts; len(got) != 1 {
		t.Fatalf("non-parallelizable task got %d hosts", len(got))
	}
}

func TestMeasurementInfluencesSelection(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 2},
		{name: "b", speed: 1.9},
	})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	sel, _ := s.HostSelection(g)
	if sel[id].Hosts[0] != "a" {
		t.Fatalf("baseline pick %v", sel[id].Hosts)
	}
	// A history of terrible runs on a flips the choice to b.
	for i := 0; i < 4; i++ {
		if _, err := s.Repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: "Matrix_Multiplication", Host: "a", Elapsed: time.Hour, At: time.Now()}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sel2, _ := s.HostSelection(g)
	if sel2[id].Hosts[0] != "b" {
		t.Fatalf("measurements ignored: %v", sel2[id].Hosts)
	}
}

func TestPredictSetErrors(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{{name: "a", speed: 1}})
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	if _, err := s.PredictSet(g.Task(id), nil); err == nil {
		t.Fatal("empty host set accepted")
	}
	if _, err := s.PredictSet(g.Task(id), []string{"ghost"}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

// TestChooseAtSkipMatchesFilteredRanking: Fig. 3's one body serves the
// scheduling round (skip nil: a slice of the cached order, nothing
// allocated for a sequential task on a valid entry) and the rescheduling
// request (skip set: the same cut over the ranking with the skipped
// hosts taken out first).
func TestChooseAtSkipMatchesFilteredRanking(t *testing.T) {
	s := mkSite(t, "s1", []hostSpec{
		{name: "a", speed: 1}, {name: "b", speed: 4}, {name: "c", speed: 2},
		{name: "d", speed: 3, load: 0.5}, {name: "e", speed: 0.5},
	})
	for _, props := range []afg.Properties{{}, {Mode: afg.Parallel, Nodes: 2}} {
		g, id := oneTaskGraph(t, "LU_Decomposition", props)
		task := g.Task(id)
		snap := s.Snapshot()
		nodes := RequiredNodesAt(snap, task)
		ranked := rankedAt(s, snap, task)
		// (The parallel cut pays for PredictSetAt; the ranking prefix is
		// free either way.)
		if allocs := testing.AllocsPerRun(50, func() { s.ChooseAt(snap, task, nil) }); nodes == 1 && allocs != 0 {
			t.Errorf("ChooseAt with no skip allocates %.0f objects on a valid entry", allocs)
		}
		for mask := 0; mask < 1<<len(ranked); mask++ {
			skipped := func(host string) bool { return mask&(1<<(host[0]-'a')) != 0 }
			var want []string
			for _, r := range ranked {
				if !skipped(r.Name) && len(want) < nodes {
					want = append(want, r.Name)
				}
			}
			c := s.ChooseAt(snap, task, skipped)
			if len(want) < nodes {
				if c.Err == "" {
					t.Fatalf("nodes=%d mask=%05b: chose %v with %d usable hosts", nodes, mask, c.Hosts, len(want))
				}
				continue
			}
			if c.Err != "" || strings.Join(c.Hosts, ",") != strings.Join(want, ",") {
				t.Fatalf("nodes=%d mask=%05b: chose %v (%s), want %v", nodes, mask, c.Hosts, c.Err, want)
			}
			if pred, err := s.PredictSetAt(snap, task, want); err != nil || pred != c.Predicted {
				t.Fatalf("nodes=%d mask=%05b: predicted %v, want %v (%v)", nodes, mask, c.Predicted, pred, err)
			}
		}
	}
}
