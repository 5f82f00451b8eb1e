package repository

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRegisterAndParams(t *testing.T) {
	db := NewTaskPerfDB()
	p := TaskParams{Name: "LU_Decomposition", ComputationOps: 1e9, CommunicationBytes: 1 << 20,
		RequiredMemBytes: 1 << 24, BaseTime: 2 * time.Second, Parallelizable: true, SerialFraction: 0.1}
	if err := db.RegisterTask(p); err != nil {
		t.Fatal(err)
	}
	got, err := db.Params("LU_Decomposition")
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("Params = %+v, want %+v", got, p)
	}
	if _, err := db.Params("missing"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	db := NewTaskPerfDB()
	bad := []TaskParams{
		{},
		{Name: "x", ComputationOps: -1},
		{Name: "x", CommunicationBytes: -1},
		{Name: "x", RequiredMemBytes: -1},
		{Name: "x", SerialFraction: 1.5},
		{Name: "x", SerialFraction: -0.1},
	}
	for i, p := range bad {
		if err := db.RegisterTask(p); err == nil {
			t.Errorf("case %d: bad params accepted: %+v", i, p)
		}
	}
}

func TestReRegisterKeepsMeasurements(t *testing.T) {
	db := NewTaskPerfDB()
	if err := db.RegisterTask(TaskParams{Name: "t", BaseTime: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordExecution("t", "h1", 3*time.Second, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTask(TaskParams{Name: "t", BaseTime: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if d, ok := db.MeasuredTime("t", "h1"); !ok || d != 3*time.Second {
		t.Fatalf("measurement lost after re-register: %v %v", d, ok)
	}
	if p, _ := db.Params("t"); p.BaseTime != 2*time.Second {
		t.Fatal("re-register did not update params")
	}
}

func TestRecordExecutionSmoothing(t *testing.T) {
	db := NewTaskPerfDB() // Alpha = 0.5
	if err := db.RegisterTask(TaskParams{Name: "t", BaseTime: time.Second}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := db.RecordExecution("t", "h", 4*time.Second, now); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.MeasuredTime("t", "h"); d != 4*time.Second {
		t.Fatalf("first measurement should be taken as-is, got %v", d)
	}
	if err := db.RecordExecution("t", "h", 2*time.Second, now); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.MeasuredTime("t", "h"); d != 3*time.Second {
		t.Fatalf("smoothed = %v, want 3s", d)
	}
	if err := db.RecordExecution("t", "h", -time.Second, now); err == nil {
		t.Fatal("negative elapsed accepted")
	}
	if err := db.RecordExecution("ghost", "h", time.Second, now); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	if _, ok := db.MeasuredTime("t", "unmeasured-host"); ok {
		t.Fatal("measurement invented for unmeasured host")
	}
	if _, ok := db.MeasuredTime("ghost", "h"); ok {
		t.Fatal("measurement invented for unknown task")
	}
}

func TestHistoryBounded(t *testing.T) {
	db := NewTaskPerfDB()
	if err := db.RegisterTask(TaskParams{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxHistory+20; i++ {
		if err := db.RecordExecution("t", "h", time.Duration(i), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	h := db.History("t")
	if len(h) != maxHistory {
		t.Fatalf("history length %d, want %d", len(h), maxHistory)
	}
	if h[len(h)-1].Elapsed != time.Duration(maxHistory+19) {
		t.Fatal("history lost the newest measurement")
	}
	if db.History("ghost") != nil {
		t.Fatal("history for unknown task should be nil")
	}
}

// Property: smoothing always lands between the previous estimate and the
// new measurement (a convexity invariant of exponential smoothing).
func TestSmoothingConvexProperty(t *testing.T) {
	f := func(prevMs, nextMs uint16) bool {
		db := NewTaskPerfDB()
		if err := db.RegisterTask(TaskParams{Name: "t"}); err != nil {
			return false
		}
		prev := time.Duration(prevMs) * time.Millisecond
		next := time.Duration(nextMs) * time.Millisecond
		_ = db.RecordExecution("t", "h", prev, time.Now())
		_ = db.RecordExecution("t", "h", next, time.Now())
		got, _ := db.MeasuredTime("t", "h")
		lo, hi := prev, next
		if lo > hi {
			lo, hi = hi, lo
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskPerfConcurrent(t *testing.T) {
	db := NewTaskPerfDB()
	if err := db.RegisterTask(TaskParams{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := db.RecordExecution("t", "h", time.Millisecond, time.Now()); err != nil {
					t.Errorf("record: %v", err)
					return
				}
				_, _ = db.MeasuredTime("t", "h")
				_ = db.History("t")
			}
		}()
	}
	wg.Wait()
}

// perfSites builds sites a (hosts a1, a2), b (b1) and c (c1), each with
// tasks t1..t3 registered.
func perfSites(t *testing.T) map[string]*Repository {
	t.Helper()
	sites := make(map[string]*Repository)
	for site, hosts := range map[string][]string{"a": {"a1", "a2"}, "b": {"b1"}, "c": {"c1"}} {
		r := New(site)
		for _, h := range hosts {
			if err := r.Resources.AddHost(ResourceInfo{HostName: h, ArchType: "SUN", OSType: "Solaris",
				TotalMem: 1 << 30, Site: site, Group: site + "-g0", SpeedFactor: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for _, task := range []string{"t1", "t2", "t3"} {
			if err := r.TaskPerf.RegisterTask(TaskParams{Name: task, BaseTime: time.Second}); err != nil {
				t.Fatal(err)
			}
		}
		sites[site] = r
	}
	return sites
}

// TestRecordExecutionsOneEpoch: a run's batch of six measurements over
// two sites is one epoch per touched site and one generation per
// touched task, leaves an untouched site alone, ends where six single
// calls in order end, and is invisible to a snapshot taken before it.
func TestRecordExecutionsOneEpoch(t *testing.T) {
	at := time.Unix(100, 0)
	batch := []Execution{
		{"t1", "a1", 4 * time.Second, at},
		{"t2", "b1", 6 * time.Second, at.Add(1)},
		{"t1", "a1", 2 * time.Second, at.Add(2)}, // smooths with the first
		{"t1", "a2", 8 * time.Second, at.Add(3)},
		{"t3", "b1", 1 * time.Second, at.Add(4)},
		{"t2", "b1", 2 * time.Second, at.Add(5)},
		{"ghost", "a1", time.Second, at},   // dropped: unknown task
		{"t1", "a1", -time.Second, at},     // dropped: negative elapsed
		{"t1", "nowhere", time.Second, at}, // dropped: no site owns the host
	}
	sites, ref := perfSites(t), perfSites(t)
	type gens struct{ epoch, t1, t2, t3 uint64 }
	read := func(r *Repository) (g gens) {
		g.epoch = r.TaskPerf.epoch.Load().gen
		g.t1, _ = r.TaskPerf.TaskGeneration("t1")
		g.t2, _ = r.TaskPerf.TaskGeneration("t2")
		g.t3, _ = r.TaskPerf.TaskGeneration("t3")
		return g
	}
	before := map[string]gens{}
	snaps := map[string]*Snapshot{}
	for name, r := range sites {
		before[name], snaps[name] = read(r), r.Snapshot()
	}
	cEpoch := sites["c"].TaskPerf.epoch.Load()

	applied := 0
	for _, r := range sites {
		applied += r.RecordExecutions(batch)
	}
	if applied != 6 {
		t.Fatalf("applied %d of %d, want 6 (three cannot be applied)", applied, len(batch))
	}
	for _, rec := range batch { // the reference: single calls in order
		for _, r := range ref {
			if _, ok := r.Resources.View(rec.Host); ok {
				_ = r.TaskPerf.RecordExecution(rec.Task, rec.Host, rec.Elapsed, rec.At)
			}
		}
	}

	a, b := before["a"], before["b"]
	if got, want := read(sites["a"]), (gens{a.epoch + 1, a.epoch + 1, a.t2, a.t3}); got != want {
		t.Fatalf("site a generations %+v, want %+v (one epoch, t1 cloned once)", got, want)
	}
	if got, want := read(sites["b"]), (gens{b.epoch + 1, b.t1, b.epoch + 1, b.epoch + 1}); got != want {
		t.Fatalf("site b generations %+v, want %+v", got, want)
	}
	if sites["c"].TaskPerf.epoch.Load() != cEpoch {
		t.Fatal("site c took no measurement, yet published an epoch")
	}
	for name, r := range sites {
		for _, task := range []string{"t1", "t2", "t3"} {
			if got, want := r.TaskPerf.History(task), ref[name].TaskPerf.History(task); !reflect.DeepEqual(got, want) {
				t.Fatalf("site %s %s history %v, want %v", name, task, got, want)
			}
			for _, h := range []string{"a1", "a2", "b1", "c1"} {
				got, gok := r.TaskPerf.MeasuredTime(task, h)
				want, wok := ref[name].TaskPerf.MeasuredTime(task, h)
				if got != want || gok != wok {
					t.Fatalf("site %s %s on %s: smoothed %v/%v, want %v/%v", name, task, h, got, gok, want, wok)
				}
				if _, seen := snaps[name].MeasuredTime(task, h); seen {
					t.Fatalf("snapshot of site %s taken before the batch sees %s on %s", name, task, h)
				}
			}
		}
	}
	if d, _ := sites["a"].TaskPerf.MeasuredTime("t1", "a1"); d != 3*time.Second {
		t.Fatalf("t1 on a1 smoothed to %v, want 3s", d)
	}
}
