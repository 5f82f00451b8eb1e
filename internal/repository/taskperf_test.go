package repository

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// recordOne folds one measurement into db, returning the error that kept
// it out.
func recordOne(db *TaskPerfDB, task, host string, elapsed time.Duration, at time.Time) error {
	_, err := db.RecordExecutions([]Execution{{task, host, elapsed, at}}, nil)
	return err
}

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
	if err := recordOne(db, "t", "h1", 3*time.Second, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTask(TaskParams{Name: "t", BaseTime: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if d, ok := measuredTime(db, "t", "h1"); !ok || d != 3*time.Second {
		t.Fatalf("measurement lost after re-register: %v %v", d, ok)
	}
	if p, _ := db.Params("t"); p.BaseTime != 2*time.Second {
		t.Fatal("re-register did not update params")
	}
}

func TestRecordExecutionSmoothing(t *testing.T) {
	db := NewTaskPerfDB() // smoothing weight 0.5
	if err := db.RegisterTask(TaskParams{Name: "t", BaseTime: time.Second}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := recordOne(db, "t", "h", 4*time.Second, now); err != nil {
		t.Fatal(err)
	}
	if d, _ := measuredTime(db, "t", "h"); d != 4*time.Second {
		t.Fatalf("first measurement should be taken as-is, got %v", d)
	}
	if err := recordOne(db, "t", "h", 2*time.Second, now); err != nil {
		t.Fatal(err)
	}
	if d, _ := measuredTime(db, "t", "h"); d != 3*time.Second {
		t.Fatalf("smoothed = %v, want 3s", d)
	}
	if err := recordOne(db, "t", "h", -time.Second, now); err == nil {
		t.Fatal("negative elapsed accepted")
	}
	if err := recordOne(db, "ghost", "h", time.Second, now); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	if _, ok := measuredTime(db, "t", "unmeasured-host"); ok {
		t.Fatal("measurement invented for unmeasured host")
	}
	if _, ok := measuredTime(db, "ghost", "h"); ok {
		t.Fatal("measurement invented for unknown task")
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
		_ = recordOne(db, "t", "h", prev, time.Now())
		_ = recordOne(db, "t", "h", next, time.Now())
		got, _ := measuredTime(db, "t", "h")
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
				if err := recordOne(db, "t", "h", time.Millisecond, time.Now()); err != nil {
					t.Errorf("record: %v", err)
					return
				}
				_, _ = measuredTime(db, "t", "h")
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
	// An epoch's generation and its records: a touched task's record is
	// replaced, an untouched one shared.
	type gens struct {
		epoch      uint64
		t1, t2, t3 *perTask
	}
	read := func(r *Repository) (g gens) {
		ep := r.TaskPerf.epoch.Load()
		g.epoch = ep.gen
		g.t1, _ = ep.task("t1")
		g.t2, _ = ep.task("t2")
		g.t3, _ = ep.task("t3")
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
				_ = recordOne(r.TaskPerf, rec.Task, rec.Host, rec.Elapsed, rec.At)
			}
		}
	}

	a, b := before["a"], before["b"]
	if got := read(sites["a"]); got.epoch != a.epoch+1 || got.t1 == a.t1 || got.t2 != a.t2 || got.t3 != a.t3 {
		t.Fatalf("site a %+v from %+v, want one epoch that replaced t1 alone", got, a)
	}
	if got := read(sites["b"]); got.epoch != b.epoch+1 || got.t1 != b.t1 || got.t2 == b.t2 || got.t3 == b.t3 {
		t.Fatalf("site b %+v from %+v, want one epoch that replaced t2 and t3", got, b)
	}
	if sites["c"].TaskPerf.epoch.Load() != cEpoch {
		t.Fatal("site c took no measurement, yet published an epoch")
	}
	for name, r := range sites {
		for _, task := range []string{"t1", "t2", "t3"} {
			for _, h := range []string{"a1", "a2", "b1", "c1"} {
				got, gok := measuredTime(r.TaskPerf, task, h)
				want, wok := measuredTime(ref[name].TaskPerf, task, h)
				if got != want || gok != wok {
					t.Fatalf("site %s %s on %s: smoothed %v/%v, want %v/%v", name, task, h, got, gok, want, wok)
				}
				if _, seen := snaps[name].Measurements(task).On(h); seen {
					t.Fatalf("snapshot of site %s taken before the batch sees %s on %s", name, task, h)
				}
			}
		}
	}
	if d, _ := measuredTime(sites["a"].TaskPerf, "t1", "a1"); d != 3*time.Second {
		t.Fatalf("t1 on a1 smoothed to %v, want 3s", d)
	}
}

// perfCatalog builds a database of n tasks named t0.. and the host
// names h0..h(hosts-1).
func perfCatalog(t *testing.T, n, hosts int) (*TaskPerfDB, []string, []string) {
	t.Helper()
	db := NewTaskPerfDB()
	tasks := make([]string, n)
	for i := range tasks {
		tasks[i] = fmt.Sprintf("t%d", i)
		if err := db.RegisterTask(TaskParams{Name: tasks[i], BaseTime: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	hs := make([]string, hosts)
	for i := range hs {
		hs[i] = fmt.Sprintf("h%02d", i)
	}
	return db, tasks, hs
}

// measuredTime is the smoothed measured time of task on host in db's
// current epoch.
func measuredTime(db *TaskPerfDB, task, host string) (time.Duration, bool) {
	return (&Snapshot{perf: db.epoch.Load()}).Measurements(task).On(host)
}

// TestRecordExecutionsAllocs pins a write-back's allocations: the next
// epoch, its record list, the touched records' clones and their smoothed
// times, one each, whatever the catalog size, the hosts per task or the
// number of tasks touched. Copying the task map and a host map per
// touched task cost 35 for six records on 26 tasks of 12 hosts.
func TestRecordExecutionsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const budget = 4
	for _, catalog := range []int{6, 26, 80} {
		for _, hosts := range []int{3, 12} {
			db, tasks, hs := perfCatalog(t, catalog, hosts)
			// Every task measured on every host, so a write-back updates
			// estimates in place and a new host grows a full list.
			for _, h := range hs {
				for _, task := range tasks {
					if err := recordOne(db, task, h, time.Second, time.Time{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, touched := range []int{1, 6, catalog} {
				batch := make([]Execution, touched)
				for i := range batch {
					batch[i] = Execution{Task: tasks[i], Host: hs[i%hosts], Elapsed: time.Duration(i+1) * time.Millisecond}
				}
				mine := func(string) bool { return true }
				n := testing.AllocsPerRun(50, func() { _, _ = db.RecordExecutions(batch, mine) })
				t.Logf("%d tasks x %d hosts, %d touched: %v allocations", catalog, hosts, touched, n)
				if n > budget {
					t.Errorf("%d tasks x %d hosts, %d touched: %v allocations a write-back, budget %d", catalog, hosts, touched, n, budget)
				}
				// Each call measures t0 on a host it has no estimate for.
				fresh := make([]string, 21)
				for i := range fresh {
					fresh[i] = fmt.Sprintf("new-%d-%d", touched, i)
				}
				n = testing.AllocsPerRun(len(fresh)-1, func() {
					batch[0].Host, fresh = fresh[0], fresh[1:]
					_, _ = db.RecordExecutions(batch, nil)
				})
				if n > budget {
					t.Errorf("%d tasks x %d hosts, %d touched, a new host: %v allocations, budget %d", catalog, hosts, touched, n, budget)
				}
			}
		}
	}
}

// TestSnapshotKeepsEstimatesAcrossWriteBacks: a snapshot taken before a
// write-back reads the estimates and parameters it was taken with,
// although the next epoch shares its index and untouched records, and a
// re-registration shares the smoothed times.
func TestSnapshotKeepsEstimatesAcrossWriteBacks(t *testing.T) {
	r := New("s")
	db, tasks, hs := perfCatalog(t, 4, 3)
	r.TaskPerf = db
	first := []Execution{
		{Task: tasks[0], Host: hs[0], Elapsed: 4 * time.Second},
		{Task: tasks[0], Host: hs[2], Elapsed: 6 * time.Second},
		{Task: tasks[1], Host: hs[1], Elapsed: 2 * time.Second},
	}
	if _, err := db.RecordExecutions(first, nil); err != nil {
		t.Fatal(err)
	}
	type reading struct {
		d      time.Duration
		ok     bool
		params TaskParams
		err    bool
	}
	read := func(s *Snapshot) map[[2]string]reading {
		m := map[[2]string]reading{}
		for _, task := range append(tasks, "ghost") {
			for _, h := range append(hs, "h-new") {
				var rd reading
				rd.d, rd.ok = s.Measurements(task).On(h)
				var err error
				rd.params, err = s.TaskParams(task)
				rd.err = err != nil
				m[[2]string{task, h}] = rd
			}
		}
		return m
	}
	snap := r.Snapshot()
	before := read(snap)

	second := []Execution{
		{Task: tasks[0], Host: hs[0], Elapsed: 2 * time.Second}, // smooths in place
		{Task: tasks[0], Host: hs[1], Elapsed: time.Second},     // inserts between two
		{Task: tasks[0], Host: "h-new", Elapsed: time.Second},   // appends
		{Task: tasks[2], Host: hs[2], Elapsed: time.Second},
	}
	if _, err := db.RecordExecutions(second, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTask(TaskParams{Name: tasks[1], BaseTime: 9 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTask(TaskParams{Name: "t-late"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RecordExecutions([]Execution{{Task: tasks[1], Host: hs[1], Elapsed: 4 * time.Second}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := read(snap); !reflect.DeepEqual(got, before) {
		t.Fatalf("a snapshot changed under later writes:\nbefore %v\nafter  %v", before, got)
	}
	if _, err := snap.TaskParams("t-late"); err == nil {
		t.Fatal("a task registered after the snapshot is visible in it")
	}
	now := read(r.Snapshot())
	for _, c := range []struct {
		task, host string
		want       time.Duration
	}{
		{tasks[0], hs[0], 3 * time.Second}, {tasks[0], hs[1], time.Second}, {tasks[0], hs[2], 6 * time.Second},
		{tasks[0], "h-new", time.Second}, {tasks[1], hs[1], 3 * time.Second}, {tasks[2], hs[2], time.Second},
	} {
		if got := now[[2]string{c.task, c.host}]; !got.ok || got.d != c.want {
			t.Errorf("%s on %s = %v (found %v), want %v", c.task, c.host, got.d, got.ok, c.want)
		}
	}
	untouched, _ := snap.perf.task(tasks[3])
	if cur, _ := r.Snapshot().perf.task(tasks[3]); cur != untouched {
		t.Error("an untouched task's record was copied")
	}
}
