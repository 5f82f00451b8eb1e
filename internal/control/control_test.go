package control

import (
	"context"
	"testing"
	"time"

	"vdce/internal/detect"
	"vdce/internal/repository"
	"vdce/internal/testbed"
)

// buildSite builds a one-site testbed and a detector watching it.
func buildSite(t *testing.T, hosts int, cfg detect.Config) (*repository.Repository, *testbed.Testbed, *detect.Detector) {
	t.Helper()
	tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: hosts, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	site := tb.Sites[0]
	det := detect.New(cfg)
	det.AddSite(site.Name, site.Repo.Resources)
	return site.Repo, tb, det
}

// upNames lists the hosts the repository serves to placement.
func upNames(db *repository.ResourceDB) []string {
	var out []string
	for _, h := range db.UpHosts() {
		out = append(out, h.HostName)
	}
	return out
}

// TestWorkloadAndFailureRPC: what a Group Manager reports lands in the
// site's resource-performance database — a forwarded workload at once,
// an echo failure once the detector's round confirms it, and a recovery
// likewise.
func TestWorkloadAndFailureRPC(t *testing.T) {
	repo, tb, det := buildSite(t, 2, detect.Config{SuspicionTimeout: time.Second})
	db := repo.Resources
	host := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("g0", tb.Sites[0].Hosts, db, det, time.Hour)

	t0 := time.Unix(10, 0)
	if err := gm.Ingest(host.Name, repository.WorkloadSample{CPULoad: 0.42, AvailMemBytes: 123, Time: t0}); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, rec := range db.Hosts() {
		if rec.HostName == host.Name {
			seen = rec.CPULoad == 0.42 && rec.AvailMem == 123
		}
	}
	if !seen {
		t.Fatal("the forwarded workload is not in the database")
	}

	host.Fail()
	gm.EchoRound(t0.Add(time.Second))
	if up := upNames(db); len(up) != 2 {
		t.Fatalf("up hosts after the echo vote alone = %v, want both: only the detector writes status", up)
	}
	if _, err := det.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if up := upNames(db); len(up) != 1 || up[0] == host.Name {
		t.Fatalf("up hosts after the detector's round = %v, want only the other host", up)
	}
	if all := db.Hosts(); len(all) != 2 {
		t.Fatalf("database = %d hosts, want 2", len(all))
	}
	host.Recover()
	gm.EchoRound(t0.Add(3 * time.Second))
	if _, err := det.Tick(t0.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if up := upNames(db); len(up) != 2 {
		t.Fatalf("up hosts after the recovery = %v, want 2", up)
	}
}

func TestGroupManagerFiltering(t *testing.T) {
	repo, tb, det := buildSite(t, 1, detect.Config{})
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("g0", []*testbed.Host{h}, repo.Resources, det, time.Hour)
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
	repo, tb, det := buildSite(t, 1, detect.Config{})
	h := tb.Sites[0].Hosts[0]
	gm := NewGroupManager("g0", []*testbed.Host{h}, repo.Resources, det, time.Hour)
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

// TestGroupManagerEchoDetection: an echo miss is one detector vote, sent
// once per failure — with a quorum of three, the vote and one silent
// round leave the host suspect, and a second round confirms it — and an
// answering host is a heartbeat the next round turns into a recovery.
func TestGroupManagerEchoDetection(t *testing.T) {
	repo, tb, det := buildSite(t, 3, detect.Config{SuspicionTimeout: time.Second, ConfirmQuorum: 3})
	hosts := tb.Sites[0].Hosts
	resources := repo.Resources
	gm := NewGroupManager("g0", hosts, resources, det, time.Hour)
	state := func(h *testbed.Host) detect.State {
		st, _ := det.State(h.Name)
		return st
	}
	status := func(h *testbed.Host) repository.HostStatus {
		v, _ := resources.View(h.Name)
		return v.Status
	}

	t0 := time.Unix(100, 0)
	for _, h := range hosts {
		det.Observe(h.Name, t0)
	}
	gm.EchoRound(t0)
	if trs, err := det.Tick(t0); err != nil || len(trs) != 0 {
		t.Fatalf("healthy round: transitions %v, err %v", trs, err)
	}
	hosts[1].Fail()
	gm.EchoRound(t0.Add(time.Second))
	if !gm.Down(hosts[1].Name) {
		t.Fatal("failure not noticed")
	}
	// No second vote while the host stays down.
	gm.EchoRound(t0.Add(1500 * time.Millisecond))
	for _, h := range hosts {
		if h != hosts[1] {
			det.Observe(h.Name, t0.Add(2*time.Second))
		}
	}
	if _, err := det.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := state(hosts[1]); st != detect.Suspect {
		t.Fatalf("after one echo vote and one silent round the host is %v, want suspect (a duplicate vote would confirm it)", st)
	}
	if got := status(hosts[1]); got != repository.HostUp {
		t.Fatalf("a suspect host reads %s, want up", got)
	}
	if _, err := det.Tick(t0.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st, got := state(hosts[1]), status(hosts[1]); st != detect.Dead || got != repository.HostDown {
		t.Fatalf("after the second silent round: %v / %s, want dead / down", st, got)
	}
	// Recovery flips it back.
	hosts[1].Recover()
	gm.EchoRound(t0.Add(4 * time.Second))
	if gm.Down(hosts[1].Name) {
		t.Fatal("recovery not noticed")
	}
	if _, err := det.Tick(t0.Add(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st, got := state(hosts[1]), status(hosts[1]); st != detect.Recovered || got != repository.HostUp {
		t.Fatalf("after the recovery round: %v / %s, want recovered / up", st, got)
	}
}

func TestGroupManagerRunLoop(t *testing.T) {
	period := 5 * time.Millisecond
	repo, tb, det := buildSite(t, 2, detect.Config{SuspicionTimeout: 10 * period, TickPeriod: period})
	hosts := tb.Sites[0].Hosts
	resources := repo.Resources
	gm := NewGroupManager("g0", hosts, resources, det, period)
	gm.EchoPeriod = period
	gm.Threshold = 0 // forward everything

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2)
	go func() { gm.Run(ctx); done <- struct{}{} }()
	go func() { det.Run(ctx); done <- struct{}{} }()

	// Fail one host mid-run, then wait for the echo vote and the
	// detector's rounds to act.
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
	<-done
	rec, _ := resources.Host(hosts[0].Name)
	if rec.Status != repository.HostDown {
		t.Fatal("run loop never detected the failure")
	}
	if !gm.Down(hosts[0].Name) {
		t.Fatal("the echo loop never noticed the failure")
	}
	if rec, _ := resources.Host(hosts[1].Name); len(rec.RecentLoads) == 0 {
		t.Fatal("run loop forwarded no workloads")
	}
	recv, fwd, echoes := gm.Stats()
	if recv == 0 || fwd == 0 || echoes == 0 {
		t.Fatalf("stats: recv=%d forwarded=%d echoes=%d", recv, fwd, echoes)
	}
}
