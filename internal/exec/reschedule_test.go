package exec

import (
	"errors"
	"strings"
	"testing"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
)

// siteWith builds a LocalSite whose hosts all share one speed map:
// hosts[name] = speed factor relative to the base processor.
func siteWith(t *testing.T, name string, hosts map[string]float64) *core.LocalSite {
	t.Helper()
	repo := repository.New(name)
	names := make([]string, 0, len(hosts))
	for h, speed := range hosts {
		if err := repo.Resources.AddHost(repository.ResourceInfo{
			HostName: h, ArchType: "SUN", OSType: "Solaris",
			TotalMem: 1 << 30, Site: name, SpeedFactor: speed,
		}); err != nil {
			t.Fatal(err)
		}
		names = append(names, h)
	}
	if err := tasklib.Default().InstallInto(repo, names); err != nil {
		t.Fatal(err)
	}
	return core.NewLocalSite(repo)
}

// spinGraph returns a one-task graph over the catalog's Spin task.
func spinGraph(t *testing.T) (*afg.Graph, afg.TaskID) {
	t.Helper()
	g := afg.NewGraph("resched")
	id := g.AddTask("Spin", "util", 0, 1)
	return g, id
}

func TestReschedulerExcludesReportedHosts(t *testing.T) {
	// fast is 4x the base processor; the rescheduler must prefer it —
	// unless it is exactly the host the controller reported.
	site := siteWith(t, "s0", map[string]float64{"fast": 4, "mid": 2, "slow": 1})
	resched := NewRescheduler([]*core.LocalSite{site})
	g, id := spinGraph(t)

	p, err := resched(g, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts[0] != "fast" {
		t.Fatalf("unexcluded pick = %v, want fast", p.Hosts)
	}
	p, err = resched(g, id, []string{"fast"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts[0] != "mid" {
		t.Fatalf("pick with fast excluded = %v, want mid", p.Hosts)
	}
	p, err = resched(g, id, []string{"fast", "mid"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts[0] != "slow" {
		t.Fatalf("pick with fast+mid excluded = %v, want slow", p.Hosts)
	}
}

func TestReschedulerSkipsDownHosts(t *testing.T) {
	// A host the failure detector marked down must never win a
	// rescheduling request, even when it would be the fastest choice.
	site := siteWith(t, "s0", map[string]float64{"fast": 4, "slow": 1})
	if _, err := site.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: "fast", Status: repository.HostDown}}); err != nil {
		t.Fatal(err)
	}
	g, id := spinGraph(t)
	p, err := NewRescheduler([]*core.LocalSite{site})(g, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts[0] != "slow" {
		t.Fatalf("picked %v, want slow (fast is down)", p.Hosts)
	}
}

func TestReschedulerParallelFallsAcrossSites(t *testing.T) {
	// A parallel task wanting 2 nodes: the (faster) local site can no
	// longer field 2 usable hosts after the exclusion, so the placement
	// must fall through to the remote site that can.
	s0 := siteWith(t, "s0", map[string]float64{"a0": 4, "a1": 4})
	s1 := siteWith(t, "s1", map[string]float64{"b0": 1, "b1": 1})
	resched := NewRescheduler([]*core.LocalSite{s0, s1})

	g := afg.NewGraph("par")
	id := g.AddTask("Synthetic_Work", "util", 2, 1)
	if err := g.SetProps(id, afg.Properties{Mode: afg.Parallel, Nodes: 2}); err != nil {
		t.Fatal(err)
	}

	p, err := resched(g, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Site != "s0" || len(p.Hosts) != 2 {
		t.Fatalf("unexcluded parallel pick = %+v, want 2 hosts on s0", p)
	}
	p, err = resched(g, id, []string{"a0"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Site != "s1" || len(p.Hosts) != 2 {
		t.Fatalf("parallel pick with a0 excluded = %+v, want 2 hosts on s1", p)
	}
}

func TestReschedulerNoCapacityError(t *testing.T) {
	site := siteWith(t, "s0", map[string]float64{"only": 1})
	g, id := spinGraph(t)
	resched := NewRescheduler([]*core.LocalSite{site})

	if _, err := resched(g, id, []string{"only"}); err == nil {
		t.Fatal("reschedule succeeded with every host excluded")
	} else if !strings.Contains(err.Error(), "no host available") {
		t.Fatalf("error = %v, want a no-host-available explanation", err)
	}

	// Same outcome when the last host is down rather than excluded.
	if _, err := site.Repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: "only", Status: repository.HostDown}}); err != nil {
		t.Fatal(err)
	}
	if _, err := resched(g, id, nil); err == nil {
		t.Fatal("reschedule succeeded on an all-down site")
	}
}

func TestReschedulerUnknownTask(t *testing.T) {
	site := siteWith(t, "s0", map[string]float64{"h": 1})
	g, _ := spinGraph(t)
	if _, err := NewRescheduler([]*core.LocalSite{site})(g, afg.TaskID(99), nil); err == nil {
		t.Fatal("unknown task accepted")
	} else if errors.Is(err, errTerminated) {
		t.Fatal("wrong error class")
	}
}
