package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/netmodel"
	"vdce/internal/predict"
	"vdce/internal/tasklib"
)

// costFrom builds the level cost function from a site's oracle, as the
// facade does.
func costFrom(t *testing.T, s *LocalSite, g *afg.Graph) afg.CostFunc {
	t.Helper()
	return func(id afg.TaskID) float64 {
		d, err := s.Oracle.BaseTimeFor(g.Task(id).Name)
		if err != nil {
			t.Fatalf("BaseTimeFor(%s): %v", g.Task(id).Name, err)
		}
		return d.Seconds()
	}
}

func twoSiteCluster(t *testing.T) (*LocalSite, *LocalSite, *netmodel.Network) {
	t.Helper()
	a := mkSite(t, "siteA", []hostSpec{
		{name: "a1", speed: 1}, {name: "a2", speed: 1},
	})
	b := mkSite(t, "siteB", []hostSpec{
		{name: "b1", speed: 8}, {name: "b2", speed: 8},
	})
	net, err := netmodel.New([]string{"siteA", "siteB"})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, net
}

func TestScheduleSingleSite(t *testing.T) {
	a := mkSite(t, "siteA", []hostSpec{{name: "a1", speed: 2}, {name: "a2", speed: 1}})
	net, _ := netmodel.New([]string{"siteA"})
	g, err := tasklib.BuildLinearEquationSolver(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(a, nil, net, 0)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Everything must land on siteA.
	for _, e := range table.Entries {
		if e.Site != "siteA" {
			t.Fatalf("task %d on %s with no remote sites", e.Task, e.Site)
		}
	}
	if table.String() == "" || table.TotalPredicted() <= 0 {
		t.Fatal("table rendering broken")
	}
}

func TestScheduleUsesFasterRemoteForEntryTasks(t *testing.T) {
	a, b, net := twoSiteCluster(t)
	// Entry tasks have no input: Fig. 2 assigns them purely by predicted
	// time, so the 8x faster siteB must win them.
	g, id := oneTaskGraph(t, "Matrix_Generate", afg.Properties{})
	sched := NewScheduler(a, []SiteService{b}, net, 1)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if p := table.Placement(id); p == nil || p.Site != "siteB" {
		t.Fatalf("entry task placed at %+v, want siteB", p)
	}
}

func TestScheduleKeepsChildNearParentWhenTransferDominates(t *testing.T) {
	a, b, net := twoSiteCluster(t)
	// Cripple the WAN so moving data to the fast site is ruinous.
	if err := net.SetLink("siteA", "siteB", netmodel.Link{
		Latency: 5 * time.Second, BytesPerSec: 1,
	}); err != nil {
		t.Fatal(err)
	}
	g := afg.NewGraph("chain")
	gen := g.AddTask("Matrix_Generate", "matrix", 0, 1)
	mul := g.AddTask("Matrix_Multiplication", "matrix", 2, 1)
	tr := g.AddTask("Matrix_Transpose", "matrix", 1, 1)
	if err := g.Connect(gen, 0, mul, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(gen, 0, mul, 1, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mul, 0, tr, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(a, []SiteService{b}, net, 1)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	// The entry goes to fast siteB; its children must stay there rather
	// than pay the transfer back to siteA.
	entrySite := table.Placement(gen).Site
	if entrySite != "siteB" {
		t.Fatalf("entry at %s", entrySite)
	}
	if got := table.Placement(mul).Site; got != entrySite {
		t.Fatalf("child crossed a dead WAN: %s vs %s", got, entrySite)
	}
	if got := table.Placement(tr).Site; got != entrySite {
		t.Fatalf("grandchild crossed a dead WAN: %s", got)
	}
}

func TestScheduleHonorsK(t *testing.T) {
	a := mkSite(t, "s0", []hostSpec{{name: "h0", speed: 1}})
	b := mkSite(t, "s1", []hostSpec{{name: "h1", speed: 2}})
	c := mkSite(t, "s2", []hostSpec{{name: "h2", speed: 16}})
	net, err := netmodel.New([]string{"s0", "s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	// s1 is nearer than s2; with K=1 only s1 participates, so the very
	// fast s2 host must NOT be used.
	_ = net.SetLink("s0", "s1", netmodel.Link{Latency: time.Millisecond, BytesPerSec: 1e6})
	_ = net.SetLink("s0", "s2", netmodel.Link{Latency: 100 * time.Millisecond, BytesPerSec: 1e6})
	g, id := oneTaskGraph(t, "Matrix_Generate", afg.Properties{})
	sched := NewScheduler(a, []SiteService{b, c}, net, 1)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if p := table.Placement(id); p.Site == "s2" {
		t.Fatal("K=1 scheduler used the 2nd-nearest site")
	}
	// With K=2 the fast site wins.
	sched.K = 2
	table2, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if p := table2.Placement(id); p.Site != "s2" {
		t.Fatalf("K=2 ignored the fastest site: %s", p.Site)
	}
}

func TestScheduleLevelVsFIFOOrder(t *testing.T) {
	a := mkSite(t, "siteA", []hostSpec{{name: "a1", speed: 1}})
	net, _ := netmodel.New([]string{"siteA"})
	// Two independent chains: X (heavy) and Y (light), plus a shared sink.
	// Level priority must schedule the heavy chain's head first.
	g := afg.NewGraph("prio")
	light := g.AddTask("Vector_Generate", "matrix", 0, 1)     // ID 0, tiny cost
	heavy := g.AddTask("Matrix_Generate", "matrix", 0, 1)     // ID 1
	heavyMul := g.AddTask("Matrix_Transpose", "matrix", 1, 1) // ID 2
	if err := g.Connect(heavy, 0, heavyMul, 0, 8); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(a, nil, net, 0)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if table.Entries[0].Task != heavy {
		t.Fatalf("level priority scheduled task %d first, want heavy chain head %d",
			table.Entries[0].Task, heavy)
	}
	sched.Priority = FIFOPriority
	table2, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	if table2.Entries[0].Task != light {
		t.Fatalf("FIFO priority scheduled task %d first, want lowest ID %d",
			table2.Entries[0].Task, light)
	}
}

func TestScheduleNoEligibleSite(t *testing.T) {
	a := mkSite(t, "siteA", []hostSpec{{name: "a1", speed: 1}})
	net, _ := netmodel.New([]string{"siteA"})
	g, _ := oneTaskGraph(t, "Matrix_Generate", afg.Properties{Host: "not-here"})
	sched := NewScheduler(a, nil, net, 0)
	if _, err := sched.Schedule(g, costFrom(t, a, g)); !errors.Is(err, ErrNoEligibleSite) {
		t.Fatalf("got %v, want ErrNoEligibleSite", err)
	}
}

func TestScheduleNilLocal(t *testing.T) {
	var s Scheduler
	g, _ := oneTaskGraph(t, "Matrix_Generate", afg.Properties{})
	if _, err := s.Schedule(g, func(afg.TaskID) float64 { return 1 }); !errors.Is(err, ErrNoSites) {
		t.Fatalf("got %v", err)
	}
}

func TestSchedulePlacesParallelTaskOnOneSite(t *testing.T) {
	a, b, net := twoSiteCluster(t)
	g, id := oneTaskGraph(t, "LU_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 2})
	sched := NewScheduler(a, []SiteService{b}, net, 1)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	p := table.Placement(id)
	if len(p.Hosts) != 2 {
		t.Fatalf("parallel task has %d hosts", len(p.Hosts))
	}
	// Both hosts belong to the chosen site (paper: parallel tasks select
	// machines within the site).
	for _, h := range p.Hosts {
		info, err := siteOf(a, b, h)
		if err != nil {
			t.Fatal(err)
		}
		if info != p.Site {
			t.Fatalf("host %s of site %s in placement on %s", h, info, p.Site)
		}
	}
}

func siteOf(a, b *LocalSite, host string) (string, error) {
	if _, err := a.Repo.Resources.Host(host); err == nil {
		return a.SiteName(), nil
	}
	if _, err := b.Repo.Resources.Host(host); err == nil {
		return b.SiteName(), nil
	}
	return "", errors.New("host not found in either site")
}

func TestTotalPredictedAndOracleDefaults(t *testing.T) {
	// Guard the assumption the catalog and predictor agree on the base
	// processor: predicted time on an idle speed-1 host equals BaseTime.
	s := mkSite(t, "s", []hostSpec{{name: "h", speed: 1}})
	params, err := s.Repo.TaskPerf.Params("Matrix_Multiplication")
	if err != nil {
		t.Fatal(err)
	}
	g, id := oneTaskGraph(t, "Matrix_Multiplication", afg.Properties{})
	got, err := s.PredictSet(g.Task(id), []string{"h"})
	if err != nil {
		t.Fatal(err)
	}
	if got != params.BaseTime {
		t.Fatalf("idle base-host prediction %v != BaseTime %v", got, params.BaseTime)
	}
	_ = predict.Default() // document the dependency
}

// answerSite is a wire-style SiteService that answers whatever it was
// given, however long.
type answerSite struct {
	name string
	sel  Selection
}

func (s answerSite) SiteName() string                            { return s.name }
func (s answerSite) HostSelection(*afg.Graph) (Selection, error) { return s.sel, nil }

// TestScheduleRejectsMisSizedAnswers: a peer whose answer is not one
// choice per task — short or oversized — or that offers hosts under
// another site's name is that site's error. The
// round neither panics indexing it nor places anything there, however
// attractive its predictions.
func TestScheduleRejectsMisSizedAnswers(t *testing.T) {
	a, _, net := twoSiteCluster(t)
	g, err := tasklib.BuildLinearEquationSolver(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	bait := HostChoice{Site: "siteB", Hosts: []string{"b1"}, Predicted: time.Nanosecond}
	for _, n := range []int{0, 1, len(g.Tasks) - 1, len(g.Tasks) + 1, 4 * len(g.Tasks)} {
		sel := make(Selection, n)
		for i := range sel {
			sel[i] = bait
		}
		sched := NewScheduler(a, []SiteService{answerSite{"siteB", sel}}, net, 1)
		table, err := sched.Schedule(g, costFrom(t, a, g))
		if err != nil {
			t.Fatalf("%d choices for %d tasks: %v", n, len(g.Tasks), err)
		}
		for _, e := range table.Entries {
			if e.Site != "siteA" {
				t.Fatalf("%d choices for %d tasks: task %d placed on %s", n, len(g.Tasks), e.Task, e.Site)
			}
		}
	}
	// A full-length answer with holes is usable: the round skips the
	// empty choices and takes the bait for the rest.
	sel := make(Selection, len(g.Tasks))
	sel[0] = bait
	sched := NewScheduler(a, []SiteService{answerSite{"siteB", sel}}, net, 1)
	table, err := sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range table.Entries {
		if want := map[bool]string{true: "siteB", false: "siteA"}[e.Task == 0]; e.Site != want {
			t.Fatalf("task %d placed on %s, want %s", e.Task, e.Site, want)
		}
	}
	// A peer that offers hosts under another site's name — here the
	// submitting site's, whose own transfers are free — answers for no
	// task: its bait is neither recorded nor priced anywhere.
	sel = make(Selection, len(g.Tasks))
	sel[0] = bait
	sel[0].Site = "siteA"
	sched = NewScheduler(a, []SiteService{answerSite{"siteB", sel}}, net, 1)
	table, err = sched.Schedule(g, costFrom(t, a, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range table.Entries {
		if e.Site != "siteA" || slices.Contains(e.Hosts, "b1") {
			t.Fatalf("task %d placed on %s %v from a peer answering as another site", e.Task, e.Site, e.Hosts)
		}
	}
	sel[0].Site = "siteB"
	sched = NewScheduler(answerSite{"siteA", sel}, nil, net, 0)
	if _, err := sched.Schedule(g, costFrom(t, a, g)); err == nil || !strings.Contains(err.Error(), `site siteA: task 0 offered on site "siteB"`) {
		t.Fatalf("every site answering as another: %v", err)
	}
	// With every site mis-sized the round fails and says which and why.
	sched = NewScheduler(answerSite{"siteA", nil}, nil, net, 0)
	if _, err := sched.Schedule(g, costFrom(t, a, g)); err == nil || !strings.Contains(err.Error(), "site siteA: 0 choices for") {
		t.Fatalf("every site mis-sized: %v", err)
	}
}

// TestValidateRejectsDuplicateHost: a machine runs one task at a time,
// so a placement that lists one host twice could never start.
func TestValidateRejectsDuplicateHost(t *testing.T) {
	g := afg.NewGraph("twice")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Mode: afg.Parallel, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	table := &AllocationTable{App: g.Name, Entries: []Placement{{Task: id, TaskName: "Spin", Hosts: []string{"a", "b"}}}}
	if err := table.Validate(g); err != nil {
		t.Fatalf("two distinct hosts: %v", err)
	}
	table.Entries[0].Hosts = []string{"a", "a"}
	if err := table.Validate(g); err == nil || !strings.Contains(err.Error(), "task 0 lists host a twice") {
		t.Fatalf("err = %v, want the duplicate-host rejection", err)
	}
}
