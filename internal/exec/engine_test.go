package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/protocol"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// rig is a single-site execution fixture.
type rig struct {
	tb     *testbed.Testbed
	site   *core.LocalSite
	net    *netmodel.Network
	engine *Engine
}

func newRig(t *testing.T, hosts int) *rig {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: hosts, Seed: 11,
		SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	names := make([]string, len(site.Hosts))
	for i, h := range site.Hosts {
		names[i] = h.Name
	}
	if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
		t.Fatal(err)
	}
	local := core.NewLocalSite(site.Repo)
	net, err := netmodel.New([]string{site.Name})
	if err != nil {
		t.Fatal(err)
	}
	engine := &Engine{
		Reg:        tasklib.Default(),
		TB:         tb,
		Reschedule: NewRescheduler([]*core.LocalSite{local}),
	}
	t.Cleanup(engine.Close)
	return &rig{tb: tb, site: local, net: net, engine: engine}
}

func (r *rig) schedule(t *testing.T, g *afg.Graph) *core.AllocationTable {
	t.Helper()
	sched := core.NewScheduler(r.site, nil, r.net, 0)
	cost := func(id afg.TaskID) float64 {
		d, err := r.site.Oracle.BaseTimeFor(g.Task(id).Name)
		if err != nil {
			t.Fatalf("cost(%s): %v", g.Task(id).Name, err)
		}
		return d.Seconds()
	}
	table, err := sched.Schedule(g, cost)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestExecuteLESEndToEnd(t *testing.T) {
	r := newRig(t, 4)
	g, err := tasklib.BuildLinearEquationSolver(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = "" // random testbed arch mix
	}
	table := r.schedule(t, g)

	var records []protocol.ExecutionRecord
	r.engine.Record = func(recs []protocol.ExecutionRecord) { records = append(records, recs...) }
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	// Distributed execution must agree with the reference executor.
	ref, err := tasklib.RunLocal(g, tasklib.Default())
	if err != nil {
		t.Fatal(err)
	}
	exit := g.Exits()[0]
	got := res.Outputs[exit][0].(float64)
	want := ref[exit][0].(float64)
	if got != want {
		t.Fatalf("distributed residual %g != local %g", got, want)
	}
	if got > 1e-7 {
		t.Fatalf("residual too large: %g", got)
	}
	if len(res.Runs) != len(g.Tasks) {
		t.Fatalf("runs = %d, want %d", len(res.Runs), len(g.Tasks))
	}
	if len(records) != len(g.Tasks) {
		t.Fatalf("records = %d, want %d", len(records), len(g.Tasks))
	}
	if res.Makespan <= 0 || res.Rescheduled != 0 {
		t.Fatalf("makespan=%v rescheduled=%d", res.Makespan, res.Rescheduled)
	}
}

func TestExecuteC3IEndToEnd(t *testing.T) {
	r := newRig(t, 3)
	g, err := tasklib.BuildC3IPipeline(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	report := res.Outputs[g.Exits()[0]][0].(string)
	if !strings.Contains(report, "C3I THREAT REPORT") {
		t.Fatalf("report = %q", report)
	}
}

func TestConsoleSuspendResume(t *testing.T) {
	r := newRig(t, 2)
	r.engine.Console = services.NewConsole()
	g, err := tasklib.BuildC3IPipeline(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)

	r.engine.Console.Suspend()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := r.engine.Execute(context.Background(), g, table)
		done <- out{res, err}
	}()
	select {
	case <-done:
		t.Fatal("suspended application completed")
	case <-time.After(50 * time.Millisecond):
	}
	r.engine.Console.Resume()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resume did not release the application")
	}
}

func TestLoadThresholdTriggersReschedule(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	hostB := r.tb.Sites[0].Hosts[1]
	// Overload A; the controller must kill the task and move it to B.
	hostA.InjectLoad(0.95)
	r.engine.LoadThreshold = 0.8
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "50"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{hostA.Name}, Predicted: time.Millisecond,
	}}}
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d, want >= 1", res.Rescheduled)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Host != hostB.Name || last.Terminated {
		t.Fatalf("final run: %+v, want success on %s", last, hostB.Name)
	}
	// The terminated attempt must be visible in the run log.
	if !res.Runs[0].Terminated {
		t.Fatalf("first run not marked terminated: %+v", res.Runs[0])
	}
}

func TestHostFailureTriggersReschedule(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "60"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{hostA.Name}, Predicted: time.Millisecond,
	}}}
	// Fail A shortly after the run starts.
	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Fail()
	}()
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d", res.Rescheduled)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Host == hostA.Name {
		t.Fatal("task finished on the failed host")
	}
}

func TestRescheduleExhaustion(t *testing.T) {
	r := newRig(t, 2)
	for _, h := range r.tb.Sites[0].Hosts {
		h.InjectLoad(0.95)
	}
	r.engine.LoadThreshold = 0.5
	r.engine.LoadCheckPeriod = time.Millisecond
	r.engine.MaxAttempts = 2

	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "40"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{r.tb.Sites[0].Hosts[0].Name}, Predicted: time.Millisecond,
	}}}
	if _, err := r.engine.Execute(context.Background(), g, table); err == nil {
		t.Fatal("hopeless application succeeded")
	}
}

func TestTaskErrorAborts(t *testing.T) {
	r := newRig(t, 2)
	// Feed LU a vector: a type error deep in the pipeline must surface.
	g := afg.NewGraph("bad")
	vg := g.AddTask("Vector_Generate", "matrix", 0, 1)
	lu := g.AddTask("LU_Decomposition", "matrix", 1, 1)
	if err := g.Connect(vg, 0, lu, 0, 0); err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	if _, err := r.engine.Execute(context.Background(), g, table); err == nil {
		t.Fatal("type error swallowed")
	}
}

func TestContextCancellation(t *testing.T) {
	r := newRig(t, 2)
	useTasks(t, r, map[string]tasklib.Func{"Long": blockUntilCleanup(t)})
	g, table := independent("Long", r.tb.Sites[0].Hosts[:1])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := r.engine.Execute(ctx, g, table); err == nil {
		t.Fatal("cancelled execution succeeded")
	}
}

func TestDilationStretchesRuntime(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: 1, Seed: 11,
		SpeedMin: 0.25, SpeedMax: 0.25, BaseLoadMax: 0.01, LoadSigma: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	if err := tasklib.Default().InstallInto(site.Repo, []string{site.Hosts[0].Name}); err != nil {
		t.Fatal(err)
	}
	engine := &Engine{Reg: tasklib.Default(), TB: tb, DilationScale: 1}
	g := afg.NewGraph("spin")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "20"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "spin", Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{site.Hosts[0].Name}, Predicted: time.Millisecond,
	}}}
	res, err := engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	// Speed 0.25 -> dilation ~4x: a 20ms spin should report >= ~60ms.
	if got := res.Runs[0].Elapsed; got < 55*time.Millisecond {
		t.Fatalf("dilated elapsed = %v, want >= 55ms", got)
	}
}

// TestSameHostTasksSerialize: a machine runs one task at a time. Two
// tasks placed on one host have disjoint run intervals, whether one run
// or two engines over the same testbed placed them there; placed on two
// hosts they are inside their task functions at the same time — Meet
// returns only once both instances have entered it.
func TestSameHostTasksSerialize(t *testing.T) {
	r := newRig(t, 2)
	hosts := r.tb.Sites[0].Hosts
	var entered atomic.Int32
	both := make(chan struct{})
	useTasks(t, r, map[string]tasklib.Func{
		"Work": func(*tasklib.Context) ([]tasklib.Value, error) {
			time.Sleep(20 * time.Millisecond)
			return []tasklib.Value{1.0}, nil
		},
		"Meet": func(*tasklib.Context) ([]tasklib.Value, error) {
			if entered.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
				return []tasklib.Value{1.0}, nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("the other instance never started: hosts ran one at a time")
			}
		},
	})
	g, table := independent("Work", []*testbed.Host{hosts[0], hosts[0]})
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %+v", res.Runs)
	}
	disjoint := func(first, second TaskRun) {
		t.Helper()
		if second.Start.Before(first.Start) {
			first, second = second, first
		}
		if second.Start.Before(first.End) {
			t.Fatalf("tasks overlapped on one machine: %v..%v and %v..%v",
				first.Start, first.End, second.Start, second.End)
		}
	}
	disjoint(res.Runs[0], res.Runs[1])

	// The machine, not the engine, holds the run lock: a second engine
	// over the same testbed waits for the first one's task.
	other := &Engine{Reg: r.engine.Reg, TB: r.tb}
	t.Cleanup(other.Close)
	var wg sync.WaitGroup
	runs := make([]TaskRun, 2)
	for i, e := range []*Engine{r.engine, other} {
		g, table := independent("Work", hosts[:1])
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Execute(context.Background(), g, table)
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = res.Runs[0]
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	disjoint(runs[0], runs[1])

	g, table = independent("Meet", hosts[:2])
	if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	var e Engine
	g := afg.NewGraph("x")
	g.AddTask("Spin", "util", 0, 1)
	if _, err := e.Execute(context.Background(), g, &core.AllocationTable{}); err == nil {
		t.Fatal("unconfigured engine accepted work")
	}
	r := newRig(t, 1)
	if _, err := r.engine.Execute(context.Background(), g, &core.AllocationTable{}); err == nil {
		t.Fatal("empty table accepted")
	}
}

// waitForLoad polls until the condition holds or the timeout elapses.
func waitForLoad(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestWaitForLoadHelper(t *testing.T) {
	if !waitForLoad(100*time.Millisecond, func() bool { return true }) {
		t.Fatal("immediate condition failed")
	}
	if waitForLoad(10*time.Millisecond, func() bool { return false }) {
		t.Fatal("impossible condition succeeded")
	}
}

// TestRecordOncePerRun: the task-performance write-back is one Record
// call per Execute, made when the run ends, carrying one record per
// successful task — also when a later task fails or the context is
// canceled mid-run — and no call at all when nothing succeeded.
func TestRecordOncePerRun(t *testing.T) {
	r := newRig(t, 2)
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	reg := tasklib.NewRegistry()
	for _, spec := range []tasklib.Spec{
		{Name: "Quick", OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			return []tasklib.Value{1.0}, nil
		}},
		{Name: "Boom", InPorts: 1, OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			return nil, errors.New("boom")
		}},
		{Name: "Gate", InPorts: 1, OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			close(started)
			<-release
			return []tasklib.Value{1.0}, nil
		}},
	} {
		spec.Library = "test"
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	r.engine.Reg = reg
	var calls [][]protocol.ExecutionRecord
	r.engine.Record = func(recs []protocol.ExecutionRecord) { calls = append(calls, recs) }
	host := r.tb.Sites[0].Hosts[0].Name
	// chain builds a -> b -> ... on one host.
	chain := func(names ...string) (*afg.Graph, *core.AllocationTable) {
		g := afg.NewGraph(strings.Join(names, "-"))
		table := &core.AllocationTable{App: g.Name}
		for i, name := range names {
			spec, _ := reg.Get(name)
			id := g.AddTask(name, "test", spec.InPorts, 1)
			if i > 0 && spec.InPorts > 0 {
				if err := g.Connect(id-1, 0, id, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			table.Entries = append(table.Entries, core.Placement{
				Task: id, TaskName: name, Site: "site0", Hosts: []string{host}, Predicted: time.Millisecond})
		}
		return g, table
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started // Gate runs only after Quick's outputs reached it
		cancel()
	}()
	for _, tc := range []struct {
		tasks []string
		ok    bool
		want  []string // the one call's records; nil = no call
	}{
		{[]string{"Quick", "Quick"}, true, []string{"Quick", "Quick"}},
		{[]string{"Quick", "Boom"}, false, []string{"Quick"}},
		{[]string{"Boom"}, false, nil},
		{[]string{"Quick", "Gate"}, false, []string{"Quick"}},
	} {
		g, table := chain(tc.tasks...)
		calls = nil
		_, err := r.engine.Execute(ctx, g, table)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: Execute: %v", g.Name, err)
		}
		if tc.want == nil {
			if len(calls) != 0 {
				t.Fatalf("%s: nothing succeeded, yet Record got %v", g.Name, calls)
			}
			continue
		}
		if len(calls) != 1 || len(calls[0]) != len(tc.want) {
			t.Fatalf("%s: Record calls %v, want one with %d records", g.Name, calls, len(tc.want))
		}
		for i, rec := range calls[0] {
			if rec.Task != tc.want[i] || rec.Host != host || rec.At.IsZero() {
				t.Fatalf("%s: record %d = %+v", g.Name, i, rec)
			}
		}
	}
}
