package core

import (
	"strings"
	"testing"

	"vdce/internal/afg"
	"vdce/internal/netmodel"
	"vdce/internal/tasklib"
)

func baselineCluster(t *testing.T) ([]*LocalSite, *netmodel.Network) {
	t.Helper()
	a := mkSite(t, "siteA", []hostSpec{
		{name: "a1", speed: 1}, {name: "a2", speed: 2}, {name: "a3", speed: 3},
	})
	b := mkSite(t, "siteB", []hostSpec{
		{name: "b1", speed: 2}, {name: "b2", speed: 4}, {name: "b3", speed: 1},
	})
	net, err := netmodel.New([]string{"siteA", "siteB"})
	if err != nil {
		t.Fatal(err)
	}
	return []*LocalSite{a, b}, net
}

func lesGraph(t *testing.T) *afg.Graph {
	t.Helper()
	g, err := tasklib.BuildLinearEquationSolver(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the machine-type pin so every baseline can place every task on
	// either crafted site.
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
	return g
}

func TestScheduleRandomValidAndSeeded(t *testing.T) {
	sites, net := baselineCluster(t)
	g := lesGraph(t)
	t1, err := ScheduleRandom(g, sites, net, 7)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ScheduleRandom(g, sites, net, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i := range t1.Entries {
		if t1.Entries[i].Site != t2.Entries[i].Site || t1.Entries[i].Hosts[0] != t2.Entries[i].Hosts[0] {
			t.Fatal("equal seeds diverged")
		}
	}
	// Different seeds eventually differ somewhere (probabilistic but with
	// 6 tasks over 6 hosts, seed 7 vs 8 differing is essentially sure).
	t3, err := ScheduleRandom(g, sites, net, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range t1.Entries {
		if t1.Entries[i].Hosts[0] != t3.Entries[i].Hosts[0] {
			same = false
			break
		}
	}
	if same {
		t.Log("warning: seeds 7 and 8 produced identical tables (unlikely but legal)")
	}
}

func TestScheduleRoundRobinSpreads(t *testing.T) {
	sites, net := baselineCluster(t)
	g := lesGraph(t)
	table, err := ScheduleRoundRobin(g, sites, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
	seenSites := make(map[string]bool)
	for _, e := range table.Entries {
		seenSites[e.Site] = true
	}
	if len(seenSites) < 2 {
		t.Fatalf("round-robin used only %v", seenSites)
	}
}

func TestScheduleMinMinValid(t *testing.T) {
	sites, net := baselineCluster(t)
	g := lesGraph(t)
	table, err := ScheduleMinMin(g, sites, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Min-min fills predictions everywhere.
	for _, e := range table.Entries {
		if e.Predicted <= 0 {
			t.Fatalf("entry %d has no prediction", e.Task)
		}
	}
}

func TestBaselinesNoEligibleSite(t *testing.T) {
	sites, net := baselineCluster(t)
	g, _ := oneTaskGraph(t, "Matrix_Generate", afg.Properties{Host: "nowhere"})
	if _, err := ScheduleRandom(g, sites, net, 1); err == nil {
		t.Fatal("random accepted unplaceable task")
	}
	if _, err := ScheduleRoundRobin(g, sites, net); err == nil {
		t.Fatal("round-robin accepted unplaceable task")
	}
	if _, err := ScheduleMinMin(g, sites, net); err == nil {
		t.Fatal("min-min accepted unplaceable task")
	}
}

func TestBaselinesEmptySites(t *testing.T) {
	_, net := baselineCluster(t)
	g := lesGraph(t)
	if _, err := ScheduleRandom(g, nil, net, 1); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := ScheduleRoundRobin(g, nil, net); err == nil {
		t.Fatal("no sites accepted")
	}
	if _, err := ScheduleMinMin(g, nil, net); err == nil {
		t.Fatal("no sites accepted")
	}
}

// TestUnpriceableInputFailsEveryPolicy: on a site the network model does
// not know, a task's input cannot be priced. Every policy fails the round
// with the network model's error; none skips the site or prices the
// input at zero.
func TestUnpriceableInputFailsEveryPolicy(t *testing.T) {
	s := mkSite(t, "siteA", []hostSpec{{name: "a1", speed: 1}, {name: "a2", speed: 2}})
	net, err := netmodel.New([]string{"siteB"})
	if err != nil {
		t.Fatal(err)
	}
	g := lesGraph(t)
	cost := costFrom(t, s, g)
	sites := []*LocalSite{s}
	for _, tc := range []struct {
		name     string
		schedule func() (*AllocationTable, error)
	}{
		{"vdce", func() (*AllocationTable, error) { return NewScheduler(s, nil, net, 0).Schedule(g, cost) }},
		{"vdce+q", func() (*AllocationTable, error) { return ScheduleQueueAware(g, sites, net, cost) }},
		{"minmin", func() (*AllocationTable, error) { return ScheduleMinMin(g, sites, net) }},
		{"rrobin", func() (*AllocationTable, error) { return ScheduleRoundRobin(g, sites, net) }},
		{"random", func() (*AllocationTable, error) { return ScheduleRandom(g, sites, net, 1) }},
	} {
		if _, err := tc.schedule(); err == nil || !strings.Contains(err.Error(), `netmodel: unknown site "siteA"`) {
			t.Errorf("%s: err = %v, want the network model's unknown-site error", tc.name, err)
		}
	}
}

func TestRoundRobinParallelDistinctHosts(t *testing.T) {
	sites, net := baselineCluster(t)
	g, id := oneTaskGraph(t, "LU_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 3})
	table, err := ScheduleRoundRobin(g, sites, net)
	if err != nil {
		t.Fatal(err)
	}
	p := table.Placement(id)
	seen := make(map[string]bool)
	for _, h := range p.Hosts {
		if seen[h] {
			t.Fatalf("duplicate host %s in parallel placement", h)
		}
		seen[h] = true
	}
}
