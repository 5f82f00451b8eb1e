package testbed

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/repository"
)

func build(t *testing.T, cfg Config) *Testbed {
	t.Helper()
	tb, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestBuildDefaults(t *testing.T) {
	tb := build(t, Config{})
	if len(tb.Sites) != 2 {
		t.Fatalf("sites = %d", len(tb.Sites))
	}
	for _, s := range tb.Sites {
		if len(s.Hosts) != 4 {
			t.Fatalf("site %s hosts = %d", s.Name, len(s.Hosts))
		}
		// Repo pre-populated.
		if got := len(s.Repo.Resources.Hosts()); got != 4 {
			t.Fatalf("site %s repo hosts = %d", s.Name, got)
		}
		for _, h := range s.Hosts {
			if h.Speed < 0.5 || h.Speed > 4.0 {
				t.Fatalf("host speed %g out of range", h.Speed)
			}
			if h.TotalMem < 64<<20 || h.TotalMem > 512<<20 {
				t.Fatalf("host mem %d out of range", h.TotalMem)
			}
			if !strings.Contains(h.Name, s.Name) {
				t.Fatalf("host name %q missing site", h.Name)
			}
		}
	}
	if _, err := tb.Net.LinkBetween("site0", "site1"); err != nil {
		t.Fatalf("network missing sites: %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := build(t, Config{Seed: 42, Sites: 3, GroupsPerSite: 2, HostsPerGroup: 3})
	b := build(t, Config{Seed: 42, Sites: 3, GroupsPerSite: 2, HostsPerGroup: 3})
	ha, hb := a.AllHosts(), b.AllHosts()
	if len(ha) != 18 || len(hb) != 18 {
		t.Fatalf("host counts %d %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Name != hb[i].Name || ha[i].Speed != hb[i].Speed || ha[i].TotalMem != hb[i].TotalMem {
			t.Fatalf("host %d differs between equal-seed builds", i)
		}
	}
}

func TestBuildRejectsBadLoadMax(t *testing.T) {
	if _, err := Build(Config{BaseLoadMax: 1.5}); err == nil {
		t.Fatal("BaseLoadMax >= 1 accepted")
	}
}

func TestLookups(t *testing.T) {
	tb := build(t, Config{})
	h := tb.Sites[0].Hosts[0]
	got, err := tb.Host(h.Name)
	if err != nil || got != h {
		t.Fatalf("Host lookup: %v %v", got, err)
	}
	if _, err := tb.Host("nope"); err == nil {
		t.Fatal("unknown host accepted")
	}
	s, err := tb.Site("site1")
	if err != nil || s.Name != "site1" {
		t.Fatalf("Site lookup: %v %v", s, err)
	}
	if _, err := tb.Site("nope"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestGroups(t *testing.T) {
	tb := build(t, Config{Sites: 1, GroupsPerSite: 3, HostsPerGroup: 2})
	s := tb.Sites[0]
	gs := s.GroupNames()
	if len(gs) != 3 {
		t.Fatalf("groups = %v", gs)
	}
	for _, g := range gs {
		if hosts := s.GroupHosts(g); len(hosts) != 2 {
			t.Fatalf("group %s hosts = %d", g, len(hosts))
		}
	}
	if hosts := s.GroupHosts("missing"); len(hosts) != 0 {
		t.Fatal("phantom group has hosts")
	}
}

func TestSampleWalkStaysBounded(t *testing.T) {
	tb := build(t, Config{Seed: 5, BaseLoadMax: 0.6})
	h := tb.Sites[0].Hosts[0]
	for i := 0; i < 1000; i++ {
		s := h.Sample(time.Unix(int64(i), 0))
		if s.CPULoad < 0 || s.CPULoad > 0.99 {
			t.Fatalf("sample %d load %g out of bounds", i, s.CPULoad)
		}
	}
}

func TestInjectLoadAndDilation(t *testing.T) {
	tb := build(t, Config{Seed: 5})
	h := tb.Sites[0].Hosts[0]
	before := h.CurrentLoad()
	h.InjectLoad(0.3)
	after := h.CurrentLoad()
	if after <= before && after < 0.99 {
		t.Fatalf("InjectLoad did nothing: %g -> %g", before, after)
	}
	d1 := h.Dilation()
	h.InjectLoad(0.3)
	d2 := h.Dilation()
	if d2 <= d1 {
		t.Fatalf("more load should dilate more: %g -> %g", d1, d2)
	}
	h.InjectLoad(-10) // clamps to zero
	if l := h.CurrentLoad(); l > 0.99 || math.IsNaN(l) {
		t.Fatalf("negative injection broke load: %g", l)
	}
	// Dilation of an idle speed-s host is 1/s.
	h2 := &Host{Speed: 2, TotalMem: 1, rng: h.rng}
	if got := h2.Dilation(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Dilation = %g, want 0.5", got)
	}
}

func TestFailureAndEcho(t *testing.T) {
	tb := build(t, Config{})
	h := tb.Sites[0].Hosts[0]
	if err := h.Echo(); err != nil {
		t.Fatalf("healthy echo failed: %v", err)
	}
	h.Fail()
	if err := h.Echo(); err == nil {
		t.Fatal("failed host answered echo")
	}
	if h.Info().Status != repository.HostDown {
		t.Fatal("Info does not reflect failure")
	}
	h.Recover()
	if err := h.Echo(); err != nil {
		t.Fatalf("recovered echo failed: %v", err)
	}
}

func TestMemoryClaims(t *testing.T) {
	tb := build(t, Config{Seed: 3})
	h := tb.Sites[0].Hosts[0]
	if err := h.ClaimMem(h.TotalMem + 1); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("over-claim: %v", err)
	}
	if err := h.ClaimMem(-5); err == nil {
		t.Fatal("negative claim accepted")
	}
	if err := h.ClaimMem(h.TotalMem / 2); err != nil {
		t.Fatal(err)
	}
	if avail := h.Info().AvailMem; avail != h.TotalMem-h.TotalMem/2 {
		t.Fatalf("avail after claim = %d", avail)
	}
	h.ReleaseMem(h.TotalMem) // over-release clamps
	if avail := h.Info().AvailMem; avail != h.TotalMem {
		t.Fatalf("avail after release = %d", avail)
	}
}

func TestRefreshRepos(t *testing.T) {
	tb := build(t, Config{Seed: 9})
	dead := tb.Sites[1].Hosts[2]
	dead.Fail()
	if err := tb.RefreshRepos(time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	// Up hosts got fresh samples.
	up := tb.Sites[0].Hosts[0]
	rec, err := tb.Sites[0].Repo.Resources.Host(up.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.RecentLoads) == 0 {
		t.Fatal("no workload recorded for up host")
	}
	// Dead host marked down.
	drec, err := tb.Sites[1].Repo.Resources.Host(dead.Name)
	if err != nil {
		t.Fatal(err)
	}
	if drec.Status != repository.HostDown {
		t.Fatal("failed host not marked down")
	}
	// Recovery flips it back.
	dead.Recover()
	if err := tb.RefreshRepos(time.Unix(101, 0)); err != nil {
		t.Fatal(err)
	}
	drec, _ = tb.Sites[1].Repo.Resources.Host(dead.Name)
	if drec.Status != repository.HostUp {
		t.Fatal("recovered host not marked up")
	}
}

func TestHostConcurrentAccess(t *testing.T) {
	tb := build(t, Config{})
	h := tb.Sites[0].Hosts[0]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.Sample(time.Now())
				h.InjectLoad(0.01)
				h.InjectLoad(-0.01)
				_ = h.Dilation()
				_ = h.Info()
				_ = h.Echo()
			}
		}()
	}
	wg.Wait()
}
