package control

import (
	"context"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"vdce/internal/protocol"
	"vdce/internal/repository"
	"vdce/internal/testbed"
)

// buildSite builds a one-site testbed.
func buildSite(t *testing.T, hosts int) (*repository.Repository, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: hosts, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	return tb.Sites[0].Repo, tb
}

// startSite builds a one-site testbed and serves its Site Manager.
func startSite(t *testing.T, name string, hosts int) (*SiteManager, *repository.Repository, *testbed.Testbed) {
	t.Helper()
	repo, tb := buildSite(t, hosts)
	sm, err := StartSiteManager(name, repo, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	return sm, repo, tb
}

// TestWorkloadAndFailureRPC: what a Group Manager's reports put into the
// site's resource-performance database is what the Resources RPC — the
// workload view vdce-monitor prints — serves.
func TestWorkloadAndFailureRPC(t *testing.T) {
	sm, repo, tb := startSite(t, "siteW", 2)
	if sm.SiteName() != "siteW" {
		t.Fatalf("site name = %q", sm.SiteName())
	}
	client, err := rpc.Dial("tcp", sm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resources := func(q protocol.ResourceQuery) []repository.ResourceInfo {
		t.Helper()
		var list protocol.ResourceList
		if err := client.Call(protocol.SiteServiceName+".Resources", q, &list); err != nil {
			t.Fatal(err)
		}
		return list.Hosts
	}
	reporter := RepoReporter{Repo: repo}
	host := tb.Sites[0].Hosts[0].Name

	batch := protocol.WorkloadBatch{Site: "siteW", Group: "g", Samples: []protocol.HostSample{
		{Host: host, Sample: repository.WorkloadSample{CPULoad: 0.42, AvailMemBytes: 123, Time: time.Unix(10, 0)}},
	}}
	if err := reporter.ApplyWorkloads(batch); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, rec := range resources(protocol.ResourceQuery{}) {
		if rec.HostName == host {
			seen = rec.CPULoad == 0.42 && rec.AvailMem == 123
		}
	}
	if !seen {
		t.Fatal("the forwarded workload is not in the Resources answer")
	}

	if err := reporter.ApplyFailure(protocol.FailureNotice{Host: host, Detected: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if up := resources(protocol.ResourceQuery{UpOnly: true}); len(up) != 1 || up[0].HostName == host {
		t.Fatalf("up hosts after the failure notice = %+v, want only the other host", up)
	}
	if all := resources(protocol.ResourceQuery{}); len(all) != 2 {
		t.Fatalf("resources = %d hosts, want 2", len(all))
	}
	if err := reporter.ApplyRecovery(protocol.RecoveryNotice{Host: host, Detected: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if up := resources(protocol.ResourceQuery{UpOnly: true}); len(up) != 2 {
		t.Fatalf("up hosts after the recovery notice = %d, want 2", len(up))
	}
	if other := resources(protocol.ResourceQuery{Group: "no-such-group"}); len(other) != 0 {
		t.Fatalf("group filter let %d hosts through", len(other))
	}
}

func TestGroupManagerFiltering(t *testing.T) {
	repo, tb := buildSite(t, 1)
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("siteF", "g0", []*testbed.Host{h}, RepoReporter{Repo: repo}, time.Hour)
	gm.Threshold = 0.1
	gm.MemThreshold = 1 << 40 // effectively disable the memory trigger

	mk := func(load float64) repository.WorkloadSample {
		return repository.WorkloadSample{CPULoad: load, AvailMemBytes: 1 << 20, Time: time.Now()}
	}
	// First sample always forwards.
	if err := gm.Ingest(h.Name, mk(0.30)); err != nil {
		t.Fatal(err)
	}
	// Small change suppressed.
	if err := gm.Ingest(h.Name, mk(0.35)); err != nil {
		t.Fatal(err)
	}
	// Big change forwards.
	if err := gm.Ingest(h.Name, mk(0.55)); err != nil {
		t.Fatal(err)
	}
	recv, fwd, _ := gm.Stats()
	if recv != 3 || fwd != 2 {
		t.Fatalf("received=%d forwarded=%d, want 3/2", recv, fwd)
	}
	// The suppressed value never reached the repository: two samples in
	// the host's history ring, the last one current.
	rec, _ := repo.Resources.Host(h.Name)
	if rec.CPULoad != 0.55 || len(rec.RecentLoads) != 2 {
		t.Fatalf("repo load = %g after %d updates, want 0.55 after 2", rec.CPULoad, len(rec.RecentLoads))
	}
}

func TestGroupManagerCumulativeDrift(t *testing.T) {
	// Regression guard: the filter compares against the last REPORTED
	// value, so a slow drift must eventually be reported.
	repo, tb := buildSite(t, 1)
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("siteD", "g0", []*testbed.Host{h}, RepoReporter{Repo: repo}, time.Hour)
	gm.Threshold = 0.1
	gm.MemThreshold = 1 << 40
	load := 0.0
	for i := 0; i < 10; i++ {
		load += 0.03 // each step below threshold, total far above
		if err := gm.Ingest(h.Name, repository.WorkloadSample{CPULoad: load, AvailMemBytes: 1, Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	_, fwd, _ := gm.Stats()
	if fwd < 3 {
		t.Fatalf("drift never reported: forwarded=%d", fwd)
	}
}

func TestGroupManagerEchoDetection(t *testing.T) {
	repo, tb := buildSite(t, 3)
	hosts := tb.Sites[0].Hosts
	resources := repo.Resources
	gm := NewGroupManager("siteE", "g0", hosts, RepoReporter{Repo: repo}, time.Hour)

	// Every notice is one repository write, so the database's generation
	// counts them.
	before := resources.Generation()
	if err := gm.EchoRound(time.Now()); err != nil {
		t.Fatal(err)
	}
	if resources.Generation() != before {
		t.Fatal("healthy round produced reports")
	}
	hosts[1].Fail()
	if err := gm.EchoRound(time.Now()); err != nil {
		t.Fatal(err)
	}
	if !gm.Down(hosts[1].Name) {
		t.Fatal("failure not detected")
	}
	rec, _ := resources.Host(hosts[1].Name)
	if rec.Status != repository.HostDown {
		t.Fatal("repo not updated on failure")
	}
	// No duplicate reports while still down.
	before = resources.Generation()
	if err := gm.EchoRound(time.Now()); err != nil {
		t.Fatal(err)
	}
	if resources.Generation() != before {
		t.Fatal("duplicate failure report")
	}
	// Recovery flips it back.
	hosts[1].Recover()
	if err := gm.EchoRound(time.Now()); err != nil {
		t.Fatal(err)
	}
	if gm.Down(hosts[1].Name) {
		t.Fatal("recovery not detected")
	}
	rec, _ = resources.Host(hosts[1].Name)
	if rec.Status != repository.HostUp {
		t.Fatal("repo not updated on recovery")
	}
}

func TestGroupManagerRunLoop(t *testing.T) {
	repo, tb := buildSite(t, 2)
	hosts := tb.Sites[0].Hosts
	resources := repo.Resources
	gm := NewGroupManager("siteR", "g0", hosts, RepoReporter{Repo: repo}, 5*time.Millisecond)
	gm.EchoPeriod = 5 * time.Millisecond
	gm.Threshold = 0 // forward everything

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { gm.Run(ctx); close(done) }()

	// Fail one host mid-run, then wait for the daemon loops to act.
	time.Sleep(30 * time.Millisecond)
	hosts[0].Fail()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rec, _ := resources.Host(hosts[0].Name)
		if rec.Status == repository.HostDown {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	rec, _ := resources.Host(hosts[0].Name)
	if rec.Status != repository.HostDown {
		t.Fatal("run loop never detected the failure")
	}
	if rec, _ := resources.Host(hosts[1].Name); len(rec.RecentLoads) == 0 {
		t.Fatal("run loop forwarded no workloads")
	}
	recv, fwd, echoes := gm.Stats()
	if recv == 0 || fwd == 0 || echoes == 0 {
		t.Fatalf("stats: recv=%d forwarded=%d echoes=%d", recv, fwd, echoes)
	}
}

func TestSiteManagerDoubleClose(t *testing.T) {
	sm, _, _ := startSite(t, "siteC", 1)
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal("second close errored")
	}
	if !strings.Contains(sm.Addr(), ":") {
		t.Fatal("addr unreadable after close")
	}
}
