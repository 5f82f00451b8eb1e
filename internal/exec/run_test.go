package exec

// The run: one TaskID-indexed state block and one monitoring loop per
// application. These tests pin what that loop must still do for every
// attempt — terminate it, once, wherever it is waiting — what the run's
// own table looks like afterwards, and what a placement may not say.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// useTasks points the rig's engine at a registry of the given one-output
// test tasks.
func useTasks(t *testing.T, r *rig, fns map[string]tasklib.Func) {
	t.Helper()
	reg := tasklib.NewRegistry()
	for name, fn := range fns {
		if err := reg.Register(tasklib.Spec{Name: name, Library: "test", OutPorts: 1, Fn: fn}); err != nil {
			t.Fatal(err)
		}
	}
	r.engine.Reg = reg
}

// blockUntilCleanup is a task function that returns only when the test
// ends: long work that, unlike Spin, leaves no busy goroutine competing
// with later tests once its attempt is abandoned.
func blockUntilCleanup(t *testing.T) tasklib.Func {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return func(*tasklib.Context) ([]tasklib.Value, error) {
		<-release
		return []tasklib.Value{1.0}, nil
	}
}

// independent builds a graph of unconnected tasks called name, task i
// placed on hosts[i].
func independent(name string, hosts []*testbed.Host) (*afg.Graph, *core.AllocationTable) {
	g := afg.NewGraph("independent")
	table := &core.AllocationTable{App: g.Name}
	for _, h := range hosts {
		id := g.AddTask(name, "test", 0, 1)
		table.Entries = append(table.Entries, core.Placement{
			Task: id, TaskName: name, Site: "site0", Hosts: []string{h.Name}, Predicted: time.Millisecond})
	}
	return g, table
}

// moveTo is a Reschedule hook that sends task i to spares[i].
func moveTo(spares []*testbed.Host) func(*afg.Graph, afg.TaskID, []string) (*core.Placement, error) {
	return func(g *afg.Graph, id afg.TaskID, _ []string) (*core.Placement, error) {
		return &core.Placement{Task: id, TaskName: g.Task(id).Name, Site: "spare",
			Hosts: []string{spares[id].Name}, Predicted: 2 * time.Millisecond}, nil
	}
}

// TestOneMonitorPerRun: eight tasks hold eight hosts when all eight
// fail. The run's one loop must reach every attempt — each is
// terminated once, soon, and re-run on its spare.
func TestOneMonitorPerRun(t *testing.T) {
	const tasks = 8
	r := newRig(t, 2*tasks)
	hosts := r.tb.Sites[0].Hosts
	r.engine.LoadCheckPeriod = 2 * time.Millisecond
	r.engine.Reschedule = moveTo(hosts[tasks:])
	var calls atomic.Int32
	started := make(chan struct{}, tasks)
	release := make(chan struct{})
	defer close(release) // lets the abandoned first attempts return
	useTasks(t, r, map[string]tasklib.Func{"Hold": func(*tasklib.Context) ([]tasklib.Value, error) {
		if calls.Add(1) <= tasks { // the first attempts, one per host
			started <- struct{}{}
			<-release
		}
		return []tasklib.Value{1.0}, nil
	}})
	g, table := independent("Hold", hosts[:tasks])

	failedAt := make(chan time.Time, 1)
	go func() {
		for i := 0; i < tasks; i++ {
			<-started
		}
		failedAt <- time.Now()
		for _, h := range hosts[:tasks] {
			h.Fail()
		}
	}()
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled != tasks || len(res.FailedHosts) != tasks || len(res.Runs) != 2*tasks {
		t.Fatalf("rescheduled %d, failed hosts %v, %d runs; want %d, %d and %d",
			res.Rescheduled, res.FailedHosts, len(res.Runs), tasks, tasks, 2*tasks)
	}
	at := <-failedAt
	killed, finished := make(map[afg.TaskID]int), make(map[afg.TaskID]int)
	for _, tr := range res.Runs {
		if !tr.Terminated {
			finished[tr.Task]++
			if tr.Attempt != 2 || tr.Host != hosts[tasks+int(tr.Task)].Name {
				t.Errorf("task %d finished as %+v, want attempt 2 on its spare", tr.Task, tr)
			}
			continue
		}
		killed[tr.Task]++
		if tr.Attempt != 1 || tr.Host != hosts[tr.Task].Name {
			t.Errorf("task %d terminated as %+v, want attempt 1 on its first host", tr.Task, tr)
		}
		// Two check periods is 4 ms; a second is what a loaded CI box may
		// add, not what a per-attempt ticker that never fired would.
		if late := tr.End.Sub(at); late > time.Second {
			t.Errorf("task %d outlived the failure by %v", tr.Task, late)
		}
	}
	for id := afg.TaskID(0); id < tasks; id++ {
		if killed[id] != 1 || finished[id] != 1 {
			t.Errorf("task %d: %d terminated and %d finished records, want one of each", id, killed[id], finished[id])
		}
	}
}

// TestKillRacingFinishYieldsOneOutcome: the task function returns around
// the moment its host fails. Whichever comes first, the function's
// return or the monitoring loop's verdict, the attempt ends once — one
// terminated record, one re-run — and no goroutine is left behind.
func TestKillRacingFinishYieldsOneOutcome(t *testing.T) {
	r := newRig(t, 2)
	hosts := r.tb.Sites[0].Hosts
	r.engine.LoadCheckPeriod = time.Millisecond
	r.engine.Reschedule = moveTo([]*testbed.Host{hosts[1]})
	var linger atomic.Int64 // how long past the failure the function stays
	useTasks(t, r, map[string]tasklib.Func{"Edge": func(*tasklib.Context) ([]tasklib.Value, error) {
		if !hosts[0].Failed() {
			hosts[0].Fail()
			time.Sleep(time.Duration(linger.Load()))
		}
		return []tasklib.Value{1.0}, nil
	}})
	g, table := independent("Edge", hosts[:1])
	before := runtime.NumGoroutine()
	// From well inside one check period to well past it, so that some
	// rounds have the result and the verdict in flight together.
	for d := time.Duration(0); d <= 2*time.Millisecond; d += 100 * time.Microsecond {
		hosts[0].Recover()
		linger.Store(int64(d))
		res, err := r.engine.Execute(context.Background(), g, table)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 2 || !res.Runs[0].Terminated || res.Runs[1].Terminated || res.Rescheduled != 1 {
			t.Fatalf("linger %v: runs %+v, rescheduled %d; want one kill then one finish", d, res.Runs, res.Rescheduled)
		}
	}
	if !waitForLoad(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before, %d after the runs", before, runtime.NumGoroutine())
	}
}

// TestKillDuringDilationSleep: the function has returned and the attempt
// is sleeping out its dilation when the host fails. It is still under
// the monitoring loop: the kill is the loop's ("host failed"), not the
// delivery check's at the end of the sleep.
func TestKillDuringDilationSleep(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: 2, Seed: 11,
		SpeedMin: 0.25, SpeedMax: 0.25, BaseLoadMax: 0.01, LoadSigma: 0.0001,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := tb.Sites[0].Hosts
	r := &rig{tb: tb, engine: &Engine{TB: tb, DilationScale: 1, LoadCheckPeriod: time.Millisecond,
		Health: detect.New(detect.Config{}), Reschedule: moveTo([]*testbed.Host{hosts[1]})}}
	var calls atomic.Int32
	returned := make(chan struct{})
	useTasks(t, r, map[string]tasklib.Func{"Slow": func(*tasklib.Context) ([]tasklib.Value, error) {
		if calls.Add(1) == 1 {
			// 100 ms of work on a quarter-speed host: ~300 ms of dilation.
			time.Sleep(100 * time.Millisecond)
			close(returned)
		}
		return []tasklib.Value{1.0}, nil
	}})
	g, table := independent("Slow", hosts[:1])
	go func() {
		<-returned
		hosts[0].Fail()
	}()
	var mu sync.Mutex
	var reasons []string
	res, err := r.engine.Execute(context.Background(), g, table, WithEventSink(func(ev Event) {
		if ev.Type == EventHostFailure {
			mu.Lock()
			reasons = append(reasons, ev.Reason)
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 1 || reasons[0] != "host failed" {
		t.Fatalf("failure reasons %v, want the monitoring loop's one kill", reasons)
	}
	if len(res.Runs) != 2 || !res.Runs[0].Terminated || res.Runs[1].Host != hosts[1].Name {
		t.Fatalf("runs %+v", res.Runs)
	}
}

// TestResultTableIsTheRunsOwnCopy: a reschedule patches where the task
// ran and keeps the scheduling round's bookkeeping; an entry that never
// moved shares its Hosts with the input; the input table is untouched.
func TestResultTableIsTheRunsOwnCopy(t *testing.T) {
	r := newRig(t, 3)
	hosts := r.tb.Sites[0].Hosts
	r.engine.LoadCheckPeriod = time.Millisecond
	r.engine.Reschedule = moveTo([]*testbed.Host{hosts[2]})
	useTasks(t, r, map[string]tasklib.Func{"Move": func(*tasklib.Context) ([]tasklib.Value, error) {
		if !hosts[0].Failed() {
			hosts[0].Fail() // task 0's first attempt loses its host under it
		}
		return []tasklib.Value{1.0}, nil
	}, "Stay": func(*tasklib.Context) ([]tasklib.Value, error) {
		return []tasklib.Value{1.0}, nil
	}})
	g, table := independent("Move", hosts[:2])
	g.Tasks[1].Name, table.Entries[1].TaskName = "Stay", "Stay"
	table.Entries[0].TransferIn, table.Entries[0].Level = 7*time.Millisecond, 3.5
	table.Entries[1].TransferIn, table.Entries[1].Level = 9*time.Millisecond, 1.5
	before, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := json.Marshal(table); string(after) != string(before) {
		t.Fatalf("input table changed:\n%s\n%s", before, after)
	}
	moved, stayed := res.Table.Entries[0], res.Table.Entries[1]
	if moved.Site != "spare" || len(moved.Hosts) != 1 || moved.Hosts[0] != hosts[2].Name || moved.Predicted != 2*time.Millisecond {
		t.Fatalf("rescheduled entry not patched: %+v", moved)
	}
	if moved.TransferIn != 7*time.Millisecond || moved.Level != 3.5 || moved.TaskName != "Move" {
		t.Fatalf("patch clobbered the round's bookkeeping: %+v", moved)
	}
	if &stayed.Hosts[0] != &table.Entries[1].Hosts[0] {
		t.Fatal("an entry that never moved got its own Hosts copy")
	}
	if &res.Table.Entries[0] == &table.Entries[0] || res.Table.App != table.App {
		t.Fatalf("Result.Table is not the run's own copy of %q", table.App)
	}
}

// TestDuplicateHostPlacementIsRejected: a placement naming one host
// twice would take that machine's lock twice. The table is refused
// before anything runs, well inside the caller's deadline.
func TestDuplicateHostPlacementIsRejected(t *testing.T) {
	r := newRig(t, 2)
	host := r.tb.Sites[0].Hosts[0].Name
	g := afg.NewGraph("twice")
	id := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Mode: afg.Parallel, Nodes: 2, Args: map[string]string{"ms": "1"}}); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: g.Name, Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0", Hosts: []string{host, host}, Predicted: time.Millisecond}}}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(ctx, g, table)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "twice") || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the validation error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute hung on a placement that names one host twice")
	}
}

// TestRescheduleAnswerIsValidated: what a Reschedule hook (or the wire
// peer behind it) answers is checked before it becomes the placement.
func TestRescheduleAnswerIsValidated(t *testing.T) {
	r := newRig(t, 2)
	hosts := r.tb.Sites[0].Hosts
	r.engine.LoadThreshold = 0.8
	r.engine.LoadCheckPeriod = time.Millisecond
	hosts[0].InjectLoad(0.95)
	spare := hosts[1].Name
	useTasks(t, r, map[string]tasklib.Func{"Long": blockUntilCleanup(t)})
	g, table := independent("Long", hosts[:1])
	for _, tc := range []struct {
		name   string
		answer *core.Placement
	}{
		{"no placement", nil},
		{"task 7", &core.Placement{Task: 7, Hosts: []string{spare}}},
		{"no hosts", &core.Placement{}},
		{"twice", &core.Placement{Hosts: []string{spare, spare}}},
	} {
		r.engine.Reschedule = func(*afg.Graph, afg.TaskID, []string) (*core.Placement, error) {
			return tc.answer, nil
		}
		_, err := r.engine.Execute(context.Background(), g, table)
		if err == nil || !strings.Contains(err.Error(), "exec: reschedule task 0: ") || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// TestTakeOverOutlivesTheOrphan: the host of a 60 ms computation fails
// under it. The monitoring loop hands the controller to a new goroutine,
// which re-runs the task on a spare and carries the chain on to the
// consumer while the first function still computes; that function
// returns only once the run has ended. The run holds one terminated and
// one successful attempt of the task, the outputs and the write-back are
// the re-run's, and the orphan leaves every run slot as it found it: an
// unlock of a lock it no longer holds would crash the test.
func TestTakeOverOutlivesTheOrphan(t *testing.T) {
	r := newRig(t, 3)
	hosts := r.tb.Sites[0].Hosts
	r.engine.LoadCheckPeriod = time.Millisecond
	r.engine.Reschedule = moveTo([]*testbed.Host{hosts[2]})
	var records []repository.Execution
	r.engine.Record = func(recs []repository.Execution) { records = append(records, recs...) }
	runEnded := make(chan struct{})
	var calls atomic.Int32
	reg := tasklib.NewRegistry()
	for _, spec := range []tasklib.Spec{
		{Name: "Work", OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			if calls.Add(1) > 1 {
				return []tasklib.Value{2.0}, nil // the re-run
			}
			time.AfterFunc(10*time.Millisecond, hosts[0].Fail)
			for end := time.Now().Add(60 * time.Millisecond); time.Now().Before(end); {
			}
			<-runEnded
			return []tasklib.Value{1.0}, nil
		}},
		{Name: "Pass", InPorts: 1, OutPorts: 1, Fn: func(c *tasklib.Context) ([]tasklib.Value, error) {
			return []tasklib.Value{c.In[0]}, nil
		}},
	} {
		spec.Library = "test"
		if err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	r.engine.Reg = reg
	g := afg.NewGraph("orphan")
	work := g.AddTask("Work", "test", 0, 1)
	pass := g.AddTask("Pass", "test", 1, 1)
	if err := g.Connect(work, 0, pass, 0, 0); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res, err := r.engine.Execute(context.Background(), g, onePerHost(r, g))
	close(runEnded)
	if err != nil {
		t.Fatal(err)
	}
	var killed, finished []TaskRun
	for _, tr := range res.Runs {
		if tr.Task != work {
			continue
		}
		if tr.Terminated {
			killed = append(killed, tr)
		} else {
			finished = append(finished, tr)
		}
	}
	if len(killed) != 1 || killed[0].Host != hosts[0].Name || len(finished) != 1 || finished[0].Host != hosts[2].Name {
		t.Fatalf("runs %+v, want one kill on %s and one finish on %s", res.Runs, hosts[0].Name, hosts[2].Name)
	}
	if w, p := res.Outputs[work], res.Outputs[pass]; len(w) != 1 || w[0] != 2.0 || len(p) != 1 || p[0] != 2.0 {
		t.Fatalf("outputs %v and %v, want the re-run's 2", w, p)
	}
	if len(records) != 2 || records[0].Host != hosts[2].Name || records[1].Host != hosts[1].Name {
		t.Fatalf("write-back %+v, want the re-run on %s and the consumer on %s", records, hosts[2].Name, hosts[1].Name)
	}
	// The orphan returns now; once it is gone, every lock must be free.
	if !waitForLoad(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before the run, %d after", before, runtime.NumGoroutine())
	}
	for _, h := range hosts {
		if !slotFree(h) {
			t.Fatalf("run slot of %s held after the run", h.Name)
		}
	}
	if len(records) != 2 || len(res.Runs) != 3 {
		t.Fatalf("the orphan changed the run: %d records, %d runs", len(records), len(res.Runs))
	}
}

// TestOrphanLeavesNoGoroutine: a caller's cancel ends a run whose task
// function blocks. Execute returns without waiting for the function and
// the machine's run slot is free at once; the function, an orphan now,
// is the one goroutine of the run still alive, and once it returns the
// count is back where it was before the run.
func TestOrphanLeavesNoGoroutine(t *testing.T) {
	r := newRig(t, 1)
	host := r.tb.Sites[0].Hosts[0]
	started, release := make(chan struct{}), make(chan struct{})
	useTasks(t, r, map[string]tasklib.Func{"Block": func(*tasklib.Context) ([]tasklib.Value, error) {
		close(started)
		<-release
		return []tasklib.Value{1.0}, nil
	}})
	g, table := independent("Block", []*testbed.Host{host})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	if _, err := r.engine.Execute(ctx, g, table); !errors.Is(err, context.Canceled) {
		close(release)
		t.Fatalf("Execute = %v, want the caller's cancel", err)
	}
	if !slotFree(host) {
		close(release)
		t.Fatal("the canceled attempt still holds its machine")
	}
	close(release)
	if !waitForLoad(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before the run, %d after the orphan returned", before, runtime.NumGoroutine())
	}
}

// slotFree reports whether h's run slot is free, by taking it without
// waiting and freeing it again.
func slotFree(h *testbed.Host) bool {
	select {
	case h.RunSlot <- struct{}{}:
		<-h.RunSlot
		return true
	default:
		return false
	}
}

// TestCanceledRunQueuedBehindAHeldHostEnds: a run whose task waits for
// a host another run holds for long ends within a check period of its
// caller's cancel, without the host, which its holder keeps.
func TestCanceledRunQueuedBehindAHeldHostEnds(t *testing.T) {
	r := newRig(t, 1)
	r.engine.LoadCheckPeriod = 20 * time.Millisecond
	host := r.tb.Sites[0].Hosts[0]
	started, hold := make(chan struct{}), blockUntilCleanup(t)
	useTasks(t, r, map[string]tasklib.Func{
		"Hold": func(c *tasklib.Context) ([]tasklib.Value, error) {
			close(started)
			return hold(c)
		},
		"Queued": func(*tasklib.Context) ([]tasklib.Value, error) { return []tasklib.Value{1.0}, nil },
	})
	holder, holdTable := independent("Hold", []*testbed.Host{host})
	go func() { _, _ = r.engine.Execute(context.Background(), holder, holdTable) }() // until the test ends
	<-started
	g, table := independent("Queued", []*testbed.Host{host})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(ctx, g, table)
		done <- err
	}()
	time.Sleep(3 * r.engine.LoadCheckPeriod) // queued at the host's slot
	cancel()
	canceled := time.Now()
	// One check period, and as long again for the goroutines to run on
	// a loaded machine.
	limit := 2 * r.engine.LoadCheckPeriod
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute = %v, want the caller's cancel", err)
		}
		if waited := time.Since(canceled); waited > limit {
			t.Fatalf("the canceled run ended %v after its cancel, over %v", waited, limit)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the canceled run still waits for the held host 2 s after its cancel")
	}
	if slotFree(host) {
		t.Fatal("the holder lost its host to the canceled run")
	}
}
