package repository

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func seedDB(t *testing.T, n int) *ResourceDB {
	t.Helper()
	db := NewResourceDB()
	for i := 0; i < n; i++ {
		if err := db.AddHost(ResourceInfo{
			HostName: fmt.Sprintf("h%d", i), Site: "s1", Group: "g0",
			TotalMem: 1 << 30, SpeedFactor: float64(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestGenerationBumpsOnEveryWrite(t *testing.T) {
	db := seedDB(t, 2)
	g0 := db.Generation()
	if err := db.UpdateWorkload("h0", WorkloadSample{CPULoad: 0.2, AvailMemBytes: 1, Time: time.Unix(1, 0)}); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != g0+1 {
		t.Fatalf("UpdateWorkload: gen %d, want %d", db.Generation(), g0+1)
	}
	if err := setStatus(db, "h0", HostDown); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveHost("h1"); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != g0+3 {
		t.Fatalf("gen %d after 3 writes from %d", db.Generation(), g0)
	}
	// Failed writes must not bump.
	gBefore := db.Generation()
	if err := db.UpdateWorkload("ghost", WorkloadSample{}); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host: %v", err)
	}
	if db.Generation() != gBefore {
		t.Fatal("failed write bumped the generation")
	}
}

func TestSnapshotIsImmutableUnderWrites(t *testing.T) {
	r := New("s1")
	if err := r.Resources.AddHost(ResourceInfo{HostName: "h0", TotalMem: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := r.TaskPerf.RegisterTask(TaskParams{Name: "t", ComputationOps: 1e6}); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()

	// Mutate everything after the snapshot was taken.
	if err := r.Resources.UpdateWorkload("h0", WorkloadSample{CPULoad: 0.9, AvailMemBytes: 7, Time: time.Unix(9, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := setStatus(r.Resources, "h0", HostDown); err != nil {
		t.Fatal(err)
	}
	if err := recordOne(r.TaskPerf, "t", "h0", time.Second, time.Unix(9, 0)); err != nil {
		t.Fatal(err)
	}

	v, ok := snap.View("h0")
	if !ok {
		t.Fatal("host missing from snapshot")
	}
	if v.CPULoad != 0 || v.Status != HostUp {
		t.Fatalf("snapshot view changed under writes: %+v", v)
	}
	if len(snap.UpHosts()) != 1 {
		t.Fatal("snapshot up-set changed under writes")
	}
	if _, ok := snap.Measurements("t").On("h0"); ok {
		t.Fatal("snapshot sees a measurement recorded after it")
	}
	// A fresh snapshot sees everything.
	now := r.Snapshot()
	if v, _ := now.View("h0"); v.Status != HostDown || v.CPULoad != 0.9 {
		t.Fatalf("fresh snapshot stale: %+v", v)
	}
	if d, ok := now.Measurements("t").On("h0"); !ok || d != time.Second {
		t.Fatalf("fresh snapshot measurement: %v %v", d, ok)
	}
}

// TestChronicleRingIsolation pins the shared-tail chronicle: a record
// cloned from an old epoch must keep its history window byte-stable
// while dozens of later updates append past it and force backing
// reallocation.
func TestChronicleRingIsolation(t *testing.T) {
	db := seedDB(t, 1)
	for i := 0; i < 5; i++ {
		if err := db.UpdateWorkload("h0", WorkloadSample{CPULoad: float64(i) / 10, Time: time.Unix(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	old, err := db.Host("h0") // full-fidelity clone of the 5-sample ring
	if err != nil {
		t.Fatal(err)
	}

	// 3x maxRecent more updates: the ring wraps and reallocates.
	for i := 5; i < 5+3*maxRecent; i++ {
		if err := db.UpdateWorkload("h0", WorkloadSample{CPULoad: 0.5, Time: time.Unix(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(old.RecentLoads) != 5 {
		t.Fatalf("old clone ring length %d, want 5", len(old.RecentLoads))
	}
	for i, s := range old.RecentLoads {
		if s.Time != time.Unix(int64(i), 0) || s.CPULoad != float64(i)/10 {
			t.Fatalf("old ring sample %d corrupted: %+v", i, s)
		}
	}
	cur, err := db.Host("h0")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.RecentLoads) != maxRecent {
		t.Fatalf("current ring length %d, want %d", len(cur.RecentLoads), maxRecent)
	}
}

func TestUpdateWorkloadsBatchSingleGeneration(t *testing.T) {
	db := seedDB(t, 4)
	g0 := db.Generation()
	batch := []HostSample{
		{Host: "h0", Sample: WorkloadSample{CPULoad: 0.1, AvailMemBytes: 1, Time: time.Unix(1, 0)}},
		{Host: "h1", Sample: WorkloadSample{CPULoad: 0.2, AvailMemBytes: 2, Time: time.Unix(1, 0)}},
		{Host: "h2", Sample: WorkloadSample{CPULoad: 0.3, AvailMemBytes: 3, Time: time.Unix(1, 0)}},
	}
	applied, err := db.UpdateWorkloads(batch)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied %d samples, want 3", applied)
	}
	if db.Generation() != g0+1 {
		t.Fatalf("batch cost %d generations, want 1", db.Generation()-g0)
	}
	for i, want := range []float64{0.1, 0.2, 0.3} {
		v, ok := db.View(fmt.Sprintf("h%d", i))
		if !ok || v.CPULoad != want {
			t.Fatalf("h%d load %v, want %v", i, v.CPULoad, want)
		}
	}
	// An unknown host is skipped and reported; known hosts in the same
	// batch still land (a stale Group Manager membership must not starve
	// the rest of the group of monitor data).
	bad := []HostSample{
		{Host: "h0", Sample: WorkloadSample{CPULoad: 0.7, AvailMemBytes: 1, Time: time.Unix(2, 0)}},
		{Host: "ghost"},
	}
	applied, err = db.UpdateWorkloads(bad)
	if !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("bad batch: %v", err)
	}
	if applied != 1 {
		t.Fatalf("applied %d of the bad batch, want 1", applied)
	}
	if v, _ := db.View("h0"); v.CPULoad != 0.7 {
		t.Fatal("known host's sample dropped because of an unknown peer")
	}
	// A batch that applies nothing publishes no epoch: the generation
	// must not move, so cached rankings stay valid.
	gBefore := db.Generation()
	if applied, err := db.UpdateWorkloads([]HostSample{{Host: "ghost"}}); err == nil || applied != 0 {
		t.Fatalf("all-unknown batch: applied=%d err=%v", applied, err)
	}
	if db.Generation() != gBefore {
		t.Fatal("no-op batch bumped the generation")
	}
}

func TestApplyRoundAtomicity(t *testing.T) {
	db := seedDB(t, 3)
	g0 := db.Generation()
	s := WorkloadSample{CPULoad: 0.4, AvailMemBytes: 8, Time: time.Unix(2, 0)}
	round := []RoundUpdate{
		{Host: "h0", Status: HostDown},
		{Host: "h1", Status: HostUp, Sample: &s},
		{Host: "h2", Sample: &s},
	}
	applied, err := db.ApplyRound(round)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Fatalf("applied %d updates, want 3", applied)
	}
	if db.Generation() != g0+1 {
		t.Fatalf("round cost %d generations, want 1", db.Generation()-g0)
	}
	if v, _ := db.View("h0"); v.Status != HostDown {
		t.Fatal("status not applied")
	}
	if v, _ := db.View("h1"); v.CPULoad != 0.4 || v.Status != HostUp {
		t.Fatalf("sample+status not applied: %+v", v)
	}
	if v, _ := db.View("h2"); v.CPULoad != 0.4 {
		t.Fatal("bare sample not applied")
	}
	up := 0
	for _, v := range db.Views() {
		if v.Status == HostUp {
			up++
		}
	}
	if up != 2 {
		t.Fatalf("up views %d, want 2", up)
	}
	// Re-asserting already-current statuses is a no-op round: no epoch,
	// no generation bump, zero applied.
	gBefore := db.Generation()
	applied, err = db.ApplyRound([]RoundUpdate{
		{Host: "h0", Status: HostDown},
		{Host: "h1", Status: HostUp},
	})
	if err != nil || applied != 0 {
		t.Fatalf("no-op round: applied=%d err=%v", applied, err)
	}
	if db.Generation() != gBefore {
		t.Fatal("no-op status round bumped the generation")
	}
}

// TestMeasurementReplacesOnlyItsRecord: a write-back publishes the next
// epoch with a fresh record for the measured task and the unmeasured
// task's record shared, not copied.
func TestMeasurementReplacesOnlyItsRecord(t *testing.T) {
	db := NewTaskPerfDB()
	if err := db.RegisterTask(TaskParams{Name: "a", ComputationOps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTask(TaskParams{Name: "b", ComputationOps: 1}); err != nil {
		t.Fatal(err)
	}
	before := db.epoch.Load()
	a, _ := before.task("a")
	b, _ := before.task("b")
	if err := recordOne(db, "a", "h0", time.Second, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	after := db.epoch.Load()
	if after.gen != before.gen+1 {
		t.Fatalf("generation %d after a write-back, want %d", after.gen, before.gen+1)
	}
	if got, _ := after.task("a"); got == a {
		t.Fatal("measured task's record not replaced")
	}
	if got, _ := after.task("b"); got != b {
		t.Fatal("unmeasured task's record copied")
	}
	if _, ok := after.task("ghost"); ok {
		t.Fatal("unknown task has a record")
	}
}

// TestConcurrentReadersWriters exercises the lock-free read path under
// the race detector: parallel readers iterate views and histories while
// writers publish epochs.
func TestConcurrentReadersWriters(t *testing.T) {
	r := New("s1")
	for i := 0; i < 8; i++ {
		if err := r.Resources.AddHost(ResourceInfo{HostName: fmt.Sprintf("h%d", i), TotalMem: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.TaskPerf.RegisterTask(TaskParams{Name: "t", ComputationOps: 1e6}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				for _, v := range snap.UpHosts() {
					if _, ok := snap.View(v.HostName); !ok {
						t.Error("view missing from own snapshot")
						return
					}
				}
				snap.Measurements("t").On("h0")
				if rec, err := r.Resources.Host("h0"); err == nil {
					_ = rec.RecentLoads // full clone walks the ring
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		h := fmt.Sprintf("h%d", i%8)
		switch i % 3 {
		case 0:
			if err := r.Resources.UpdateWorkload(h, WorkloadSample{CPULoad: 0.1, Time: time.Unix(int64(i), 0)}); err != nil {
				t.Fatal(err)
			}
		case 1:
			st := HostDown
			if i%2 == 0 {
				st = HostUp
			}
			if err := setStatus(r.Resources, h, st); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := recordOne(r.TaskPerf, "t", h, time.Millisecond, time.Unix(int64(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMeasurementsSeekMatchesOn: a sweep of Seek over name-sorted hosts,
// measured and not, reads what On reads, and the zero value holds none.
func TestMeasurementsSeekMatchesOn(t *testing.T) {
	db := NewTaskPerfDB()
	if err := db.RegisterTask(TaskParams{Name: "t", ComputationOps: 1}); err != nil {
		t.Fatal(err)
	}
	for i, h := range []string{"g", "b", "e", "d"} {
		if err := recordOne(db, "t", h, time.Duration(i+1)*time.Second, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{perf: db.epoch.Load()}
	m := snap.Measurements("t")
	walk := m
	for _, h := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		got, gotOK := walk.Seek(h)
		want, wantOK := m.On(h)
		if got != want || gotOK != wantOK {
			t.Fatalf("Seek(%s) = %v, %v; On = %v, %v", h, got, gotOK, want, wantOK)
		}
	}
	var none Measurements
	if _, ok := none.Seek("b"); ok {
		t.Fatal("the zero Measurements holds a time")
	}
	if _, ok := snap.Measurements("ghost").On("b"); ok {
		t.Fatal("an unknown task holds a time")
	}
}
