package chaos

import (
	"context"
	"testing"
	"time"

	"vdce/internal/testbed"
)

func build(t *testing.T, sites, hosts int) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{Sites: sites, HostsPerGroup: hosts, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func failedNames(tb *testbed.Testbed) []string {
	var out []string
	for _, h := range tb.AllHosts() {
		if h.Failed() {
			out = append(out, h.Name)
		}
	}
	return out
}

func TestKillTargetsAreDeterministicPerSeed(t *testing.T) {
	pickTargets := func() []string {
		tb := build(t, 2, 8)
		in := NewInjector(tb, 42)
		a, err := in.Apply(Event{Action: Kill, Fraction: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		return a.Targets
	}
	first, second := pickTargets(), pickTargets()
	if len(first) != 4 {
		t.Fatalf("killed %d hosts of 16 at fraction 0.25", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed picked different targets: %v vs %v", first, second)
		}
	}
	// A different seed should (for this population) pick differently.
	tb := build(t, 2, 8)
	other, err := NewInjector(tb, 43).Apply(Event{Action: Kill, Fraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range first {
		if other.Targets[i] != first[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 picked identical targets %v", first)
	}
}

func TestApplyActions(t *testing.T) {
	tb := build(t, 2, 4)
	in := NewInjector(tb, 7)

	// Kill then recover an explicit host.
	name := tb.Sites[0].Hosts[0].Name
	if _, err := in.Apply(Event{Action: Kill, Hosts: []string{name}}); err != nil {
		t.Fatal(err)
	}
	h, _ := tb.Host(name)
	if !h.Failed() {
		t.Fatal("killed host not failed")
	}
	if got := failedNames(tb); len(got) != 1 || got[0] != name {
		t.Fatalf("failed set = %v", got)
	}
	// Recover with fractional targeting picks only from failed hosts.
	a, err := in.Apply(Event{Action: Recover, Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Targets) != 1 || a.Targets[0] != name {
		t.Fatalf("recover targets = %v", a.Targets)
	}
	if h.Failed() {
		t.Fatal("recovered host still failed")
	}

	// Degrade/restore adjust injected load.
	before := h.CurrentLoad()
	if _, err := in.Apply(Event{Action: Degrade, Hosts: []string{name}, Load: 0.4}); err != nil {
		t.Fatal(err)
	}
	if got := h.CurrentLoad(); got < before+0.3 {
		t.Fatalf("degrade load %v -> %v", before, got)
	}
	if _, err := in.Apply(Event{Action: Restore, Hosts: []string{name}, Load: 0.4}); err != nil {
		t.Fatal(err)
	}

	// Partition a site: hosts unreachable but not failed.
	site := tb.Sites[1]
	if _, err := in.Apply(Event{Action: PartitionSite, Site: site.Name}); err != nil {
		t.Fatal(err)
	}
	for _, h := range site.Hosts {
		if h.Reachable() || h.Failed() {
			t.Fatalf("partitioned host %s: reachable=%v failed=%v", h.Name, h.Reachable(), h.Failed())
		}
		if err := h.Echo(); err == nil {
			t.Fatalf("partitioned host %s answered echo", h.Name)
		}
	}
	if _, err := in.Apply(Event{Action: HealSite, Site: site.Name}); err != nil {
		t.Fatal(err)
	}
	for _, h := range site.Hosts {
		if !h.Reachable() {
			t.Fatalf("healed host %s unreachable", h.Name)
		}
	}

	if _, err := in.Apply(Event{Action: Action("nuke")}); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := in.Apply(Event{Action: Kill, Hosts: []string{"no-such-host"}}); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestRunPlaysScriptInOrderAndHonorsCancel(t *testing.T) {
	tb := build(t, 1, 4)
	in := NewInjector(tb, 9)
	name := tb.Sites[0].Hosts[0].Name
	sc := Scenario{Name: "t", Events: []Event{
		// Deliberately out of order: Run must sort by offset.
		{At: 10 * time.Millisecond, Action: Recover, Hosts: []string{name}},
		{At: 0, Action: Kill, Hosts: []string{name}},
	}}
	applied, err := in.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[0].Action != Kill || applied[1].Action != Recover {
		t.Fatalf("applied = %+v", applied)
	}
	h, _ := tb.Host(name)
	if h.Failed() {
		t.Fatal("host not recovered after script")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	applied, err = in.Run(ctx, Scenario{Name: "late", Events: []Event{
		{At: time.Hour, Action: Kill, Hosts: []string{name}},
	}})
	if err == nil || len(applied) != 0 {
		t.Fatalf("canceled run: applied=%v err=%v", applied, err)
	}
}

func TestScenarioBuilders(t *testing.T) {
	sc := KillQuarter(10*time.Millisecond, 30*time.Millisecond)
	if len(sc.Events) != 2 || sc.Events[0].Action != Kill || sc.Events[1].Action != Recover {
		t.Fatalf("kill-quarter = %+v", sc.Events)
	}
	rr := RollingRestart([]string{"a", "b"}, 10*time.Millisecond, 5*time.Millisecond)
	if len(rr.Events) != 4 {
		t.Fatalf("rolling-restart = %+v", rr.Events)
	}
	sp := SitePartition("s1", 0, time.Millisecond)
	if sp.Events[0].Action != PartitionSite || sp.Events[1].Action != HealSite {
		t.Fatalf("site-partition = %+v", sp.Events)
	}

	tb := build(t, 2, 2)
	for _, name := range []string{"kill-quarter", "rolling-restart", "site-partition"} {
		if _, err := Named(name, tb, time.Second); err != nil {
			t.Fatalf("Named(%s): %v", name, err)
		}
	}
	if _, err := Named("bogus", tb, time.Second); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
	// A single-site testbed must refuse site-partition: every host would
	// be cut off with no surviving site to reschedule onto.
	if _, err := Named("site-partition", build(t, 1, 4), time.Second); err == nil {
		t.Fatal("site-partition accepted on a single-site testbed")
	}
}
