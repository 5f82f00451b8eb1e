package control

import (
	"context"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/protocol"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// buildSite builds a one-site testbed with the task catalog installed.
func buildSite(t *testing.T, name string, hosts int) (*core.LocalSite, *testbed.Testbed) {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: hosts, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	site.Repo.Site = name // align repo site name with caller's label
	names := make([]string, len(site.Hosts))
	for i, h := range site.Hosts {
		names[i] = h.Name
	}
	if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
		t.Fatal(err)
	}
	return core.NewLocalSite(site.Repo), tb
}

// startSite builds a one-site testbed and serves its Site Manager.
func startSite(t *testing.T, name string, hosts int) (*SiteManager, *core.LocalSite, *testbed.Testbed) {
	t.Helper()
	local, tb := buildSite(t, name, hosts)
	sm, err := StartSiteManager(local, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	return sm, local, tb
}

func TestRemoteHostSelectionMatchesLocal(t *testing.T) {
	sm, local, _ := startSite(t, "siteX", 4)
	remote, err := DialSite("siteX", sm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if err := remote.Ping(); err != nil {
		t.Fatal(err)
	}

	g, err := tasklib.BuildLinearEquationSolver(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = "" // the random testbed may lack SUN Solaris
	}
	viaRPC, err := remote.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := local.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaRPC) != len(direct) {
		t.Fatalf("selection sizes differ: %d vs %d", len(viaRPC), len(direct))
	}
	for id, want := range direct {
		got := viaRPC[id]
		if got.Err != want.Err || got.Predicted != want.Predicted || len(got.Hosts) != len(want.Hosts) {
			t.Fatalf("task %d: rpc %+v != local %+v", id, got, want)
		}
		for i := range want.Hosts {
			if got.Hosts[i] != want.Hosts[i] {
				t.Fatalf("task %d host %d: %s != %s", id, i, got.Hosts[i], want.Hosts[i])
			}
		}
	}
}

func TestRemoteSiteInScheduler(t *testing.T) {
	// Local site is slow; remote site (over real TCP RPC) is identical.
	// The distributed scheduler must function with a wire remote.
	localA, _ := buildSite(t, "siteA", 2)
	smB, _, _ := startSite(t, "siteB", 2)
	remoteB, err := DialSite("siteB", smB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remoteB.Close()

	net, err := netmodel.New([]string{"siteA", "siteB"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tasklib.BuildC3IPipeline(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	sched := core.NewScheduler(localA, []core.SiteService{remoteB}, net, 1)
	cost := func(id afg.TaskID) float64 {
		d, err := localA.Oracle.BaseTimeFor(g.Task(id).Name)
		if err != nil {
			t.Fatalf("cost: %v", err)
		}
		return d.Seconds()
	}
	table, err := sched.Schedule(g, cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadAndFailureRPC: what a Group Manager's reports put into the
// site's resource-performance database is what the Resources RPC — the
// workload view vdce-monitor prints — serves.
func TestWorkloadAndFailureRPC(t *testing.T) {
	sm, local, tb := startSite(t, "siteW", 2)
	remote, err := DialSite("siteW", sm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	resources := func(q protocol.ResourceQuery) []repository.ResourceInfo {
		t.Helper()
		var list protocol.ResourceList
		if err := remote.client.Call(protocol.SiteServiceName+".Resources", q, &list); err != nil {
			t.Fatal(err)
		}
		return list.Hosts
	}
	reporter := RepoReporter{Repo: local.Repo}
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
	local, tb := buildSite(t, "siteF", 1)
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("siteF", "g0", []*testbed.Host{h}, RepoReporter{Repo: local.Repo}, time.Hour)
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
	rec, _ := local.Repo.Resources.Host(h.Name)
	if rec.CPULoad != 0.55 || len(rec.RecentLoads) != 2 {
		t.Fatalf("repo load = %g after %d updates, want 0.55 after 2", rec.CPULoad, len(rec.RecentLoads))
	}
}

func TestGroupManagerCumulativeDrift(t *testing.T) {
	// Regression guard: the filter compares against the last REPORTED
	// value, so a slow drift must eventually be reported.
	local, tb := buildSite(t, "siteD", 1)
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("siteD", "g0", []*testbed.Host{h}, RepoReporter{Repo: local.Repo}, time.Hour)
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
	local, tb := buildSite(t, "siteE", 3)
	hosts := tb.Sites[0].Hosts
	resources := local.Repo.Resources
	gm := NewGroupManager("siteE", "g0", hosts, RepoReporter{Repo: local.Repo}, time.Hour)

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
	local, tb := buildSite(t, "siteR", 2)
	hosts := tb.Sites[0].Hosts
	resources := local.Repo.Resources
	gm := NewGroupManager("siteR", "g0", hosts, RepoReporter{Repo: local.Repo}, 5*time.Millisecond)
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

func TestDialSiteFailure(t *testing.T) {
	if _, err := DialSite("x", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
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

// bogusPeer is a Site service whose HostSelection answers for task IDs
// the graph does not have, and not for all of those it has.
type bogusPeer struct{}

func (bogusPeer) HostSelection(_ protocol.HostSelectionRequest, resp *protocol.HostSelectionResponse) error {
	c := core.HostChoice{Site: "peer", Hosts: []string{"h"}, Predicted: time.Millisecond}
	resp.Choices = map[int]core.HostChoice{-1: c, 1: c, 99: c}
	return nil
}

// TestRemoteHostSelectionBoundsChecksPeerIDs: task IDs in a peer's
// answer are input. The dense Selection has exactly one choice per task
// of the graph; an ID outside it is dropped, a missing one stays empty.
func TestRemoteHostSelectionBoundsChecksPeerIDs(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv := rpc.NewServer()
	if err := srv.RegisterName(protocol.SiteServiceName, bogusPeer{}); err != nil {
		t.Fatal(err)
	}
	go srv.Accept(lis)
	remote, err := DialSite("peer", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := remote.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(g.Tasks) {
		t.Fatalf("%d choices for %d tasks", len(sel), len(g.Tasks))
	}
	for id, c := range sel {
		if got, want := len(c.Hosts), map[bool]int{true: 1, false: 0}[id == 1]; got != want {
			t.Fatalf("task %d: %d hosts, want %d (%+v)", id, got, want, c)
		}
	}
}
