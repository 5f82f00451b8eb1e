package repository

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func host(name, site, group string) ResourceInfo {
	return ResourceInfo{
		HostName: name, IPAddress: "10.0.0.1", ArchType: "SUN", OSType: "Solaris",
		TotalMem: 1 << 28, Site: site, Group: group, SpeedFactor: 1.5,
	}
}

func TestAddHostDefaults(t *testing.T) {
	db := NewResourceDB()
	if err := db.AddHost(ResourceInfo{HostName: "h1", TotalMem: 100}); err != nil {
		t.Fatal(err)
	}
	h, err := db.Host("h1")
	if err != nil {
		t.Fatal(err)
	}
	if h.SpeedFactor != 1 || h.Status != HostUp || h.AvailMem != 100 {
		t.Fatalf("defaults wrong: %+v", h)
	}
	if err := db.AddHost(ResourceInfo{}); err == nil {
		t.Fatal("empty host name accepted")
	}
	if err := db.AddHost(ResourceInfo{HostName: "h1"}); !errors.Is(err, ErrHostExists) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestMachineType(t *testing.T) {
	h := host("x", "s", "g")
	if mt := h.View().MachineType(); mt != "SUN Solaris" {
		t.Fatalf("MachineType = %q", mt)
	}
}

func TestUpdateWorkloadAndRing(t *testing.T) {
	db := NewResourceDB()
	if err := db.AddHost(host("h1", "s1", "g1")); err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1000, 0)
	for i := 0; i < maxRecent+10; i++ {
		s := WorkloadSample{CPULoad: float64(i) / 100, AvailMemBytes: int64(i), Time: base.Add(time.Duration(i) * time.Second)}
		if err := db.UpdateWorkload("h1", s); err != nil {
			t.Fatal(err)
		}
	}
	h, err := db.Host("h1")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.RecentLoads) != maxRecent {
		t.Fatalf("ring length %d, want %d", len(h.RecentLoads), maxRecent)
	}
	// Current fields reflect the latest sample.
	last := maxRecent + 9
	if h.CPULoad != float64(last)/100 || h.AvailMem != int64(last) {
		t.Fatalf("current fields stale: %+v", h)
	}
	if err := db.UpdateWorkload("ghost", WorkloadSample{}); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host: %v", err)
	}
}

func TestStatusTransitions(t *testing.T) {
	db := NewResourceDB()
	if err := db.AddHost(host("h1", "s1", "g1")); err != nil {
		t.Fatal(err)
	}
	if err := setStatus(db, "h1", HostDown); err != nil {
		t.Fatal(err)
	}
	if up := upViews(db); len(up) != 0 {
		t.Fatalf("down host still listed up: %v", up)
	}
	if err := setStatus(db, "h1", HostUp); err != nil {
		t.Fatal(err)
	}
	if up := upViews(db); len(up) != 1 {
		t.Fatal("host not restored")
	}
	if err := setStatus(db, "ghost", HostDown); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("unknown host: %v", err)
	}
}

// setStatus sets one host's status by a one-entry monitor round.
func setStatus(db *ResourceDB, host string, st HostStatus) error {
	_, err := db.ApplyRound([]RoundUpdate{{Host: host, Status: st}})
	return err
}

// upViews lists the views of the hosts marked up.
func upViews(db *ResourceDB) []HostView {
	var up []HostView
	for _, v := range db.Views() {
		if v.Status == HostUp {
			up = append(up, v)
		}
	}
	return up
}

func TestRemoveHost(t *testing.T) {
	db := NewResourceDB()
	if err := db.AddHost(host("h", "s", "g")); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveHost("h"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveHost("h"); !errors.Is(err, ErrUnknownHost) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestHostReturnsCopy(t *testing.T) {
	db := NewResourceDB()
	if err := db.AddHost(host("h", "s", "g")); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateWorkload("h", WorkloadSample{CPULoad: 0.5}); err != nil {
		t.Fatal(err)
	}
	h1, _ := db.Host("h")
	h1.CPULoad = 0.99
	h1.RecentLoads[0].CPULoad = 0.99
	h2, _ := db.Host("h")
	if h2.CPULoad == 0.99 || h2.RecentLoads[0].CPULoad == 0.99 {
		t.Fatal("Host leaked internal state")
	}
}

func TestResourcesConcurrent(t *testing.T) {
	db := NewResourceDB()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := db.AddHost(host(n, "s", "g")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			names := []string{"a", "b", "c", "d"}
			for j := 0; j < 100; j++ {
				n := names[(i+j)%4]
				if err := db.UpdateWorkload(n, WorkloadSample{CPULoad: 0.1}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				_ = upViews(db)
				st := HostUp // alternate, so every round writes
				if j%2 == 0 {
					st = HostDown
				}
				if err := setStatus(db, n, st); err != nil {
					t.Errorf("status: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
