package vdce

import (
	"context"
	"errors"
	"fmt"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/exec"
	"vdce/internal/protocol"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

func newEnv(t *testing.T, cfg Config) *Environment {
	t.Helper()
	env, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestEnvironmentEndToEndInProcess(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 21, BaseLoadMax: 0.2},
	})
	g, err := tasklib.BuildLinearEquationSolver(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
	table, res, err := env.Run(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
	residual := res.Outputs[g.Exits()[0]][0].(float64)
	if residual > 1e-7 {
		t.Fatalf("residual %g", residual)
	}
}

func TestEnvironmentEndToEndRPC(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 3, HostsPerGroup: 2, Seed: 22, BaseLoadMax: 0.2},
		UseRPC:  true,
	})
	if len(env.Managers) != 3 {
		t.Fatalf("managers = %d", len(env.Managers))
	}
	g, err := tasklib.BuildC3IPipeline(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	table, res, err := env.Run(context.Background(), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := table.Validate(g); err != nil {
		t.Fatal(err)
	}
	report := res.Outputs[g.Exits()[0]][0].(string)
	if !strings.Contains(report, "C3I THREAT REPORT") {
		t.Fatalf("report = %q", report)
	}
}

// TestShutdownReleasesTheDataManager: a run with dataflow edges opens
// the engine's Data Manager; Close and Crash both leave no listener, no
// stream and no reader goroutine behind. The evidence is the engine's
// own tallies, which the /metrics series are bridged from.
func TestShutdownReleasesTheDataManager(t *testing.T) {
	for name, stop := range map[string]func(*Environment){
		"close": (*Environment).Close, "crash": (*Environment).Crash,
	} {
		t.Run(name, func(t *testing.T) {
			env := newEnv(t, Config{
				Testbed: testbed.Config{Sites: 1, HostsPerGroup: 4, Seed: 24, BaseLoadMax: 0.2},
			})
			g, err := tasklib.BuildC3IPipeline(8, 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := env.Run(context.Background(), g, 0); err != nil {
				t.Fatal(err)
			}
			st := env.Engine.TransferStats()
			if !st.Listening || st.Streams < 1 || st.Readers < 1 || st.Frames != int64(len(g.Edges)) || st.Bytes <= 0 {
				t.Fatalf("after a %d-edge run: %+v", len(g.Edges), st)
			}
			for series, want := range map[string]int64{
				"vdce_exec_frames_total":          st.Frames,
				"vdce_exec_transfer_bytes_total":  st.Bytes,
				"vdce_exec_frames_dropped_total":  0,
				"vdce_exec_channel_redials_total": 0,
			} {
				if got := env.Obs.Total(series); got != float64(want) {
					t.Errorf("%s = %v, want %d", series, got, want)
				}
			}
			stop(env)
			st = env.Engine.TransferStats()
			if st.Listening || st.Streams != 0 || st.Readers != 0 {
				t.Fatalf("after shutdown: %+v", st)
			}
			if _, _, err := env.Run(context.Background(), g, 0); !errors.Is(err, exec.ErrEngineClosed) {
				t.Fatalf("run after shutdown: %v, want ErrEngineClosed", err)
			}
		})
	}
}

func TestEnvironmentDaemonsMaintainRepos(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:       testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 23},
		StartDaemons:  true,
		MonitorPeriod: 5 * time.Millisecond,
	})
	victim := env.TB.Sites[0].Hosts[1]
	victim.Fail()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		rec, err := env.Sites[0].Repo.Resources.Host(victim.Name)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status == repository.HostDown {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemons never marked the failed host down")
}

func TestEnvironmentEditorIntegration(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 24},
	})
	srv := env.EditorServer(false, 0)
	// Authenticate against the pre-provisioned account and submit a tiny
	// app through the same Submitter the HTTP handler uses.
	if _, err := env.Sites[0].Repo.Users.Authenticate("user_k", "vdce"); err != nil {
		t.Fatal(err)
	}
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Submit(context.Background(), "user_k", g)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no allocation table returned")
	}
}

func TestCostFuncErrorsOnUnknownTask(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 1, Seed: 1}})
	g, _ := tasklib.BuildC3IPipeline(4, 1)
	g.Tasks[0].Name = "Unknown_Task"
	if _, err := env.CostFunc(g); err == nil {
		t.Fatal("unknown task cost accepted")
	}
	if _, err := env.SchedulerAt(99, 1); err == nil {
		t.Fatal("bad site index accepted")
	}
}

func TestAccessDomainClampsK(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 4, HostsPerGroup: 2, Seed: 27}})
	users := env.Sites[0].Repo.Users
	if _, err := users.AddUser("loc", "p", 0, repository.DomainLocal); err != nil {
		t.Fatal(err)
	}
	if _, err := users.AddUser("campus", "p", 0, repository.DomainCampus); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		owner string
		k     int
		want  int
	}{
		{"loc", 3, 0},
		{"campus", 3, 2},
		{"campus", 1, 1},
		{"user_k", 3, 3}, // provisioned global account
		{"ghost", 3, 0},  // unknown users stay local
	}
	for _, c := range cases {
		if got := env.ClampK(c.owner, c.k); got != c.want {
			t.Errorf("ClampK(%s, %d) = %d, want %d", c.owner, c.k, got, c.want)
		}
	}
	// End to end: a local user's submission never leaves site 0.
	srv := env.EditorServer(false, 3)
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Submit(context.Background(), "loc", g)
	if err != nil {
		t.Fatal(err)
	}
	table := out.(*core.AllocationTable)
	for _, e := range table.Entries {
		if e.Site != env.Sites[0].SiteName() {
			t.Fatalf("local-domain task placed on %s", e.Site)
		}
	}
}

// TestDaemonsFeedVisualization: the workload view is the site's
// resource-performance database as vdce-monitor reads it, over the Site
// Manager's Resources RPC; a daemon sample must show up there.
func TestDaemonsFeedVisualization(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:       testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 26},
		UseRPC:        true,
		StartDaemons:  true,
		MonitorPeriod: 5 * time.Millisecond,
	})
	client, err := rpc.Dial("tcp", env.Managers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		var list protocol.ResourceList
		if err := client.Call(protocol.SiteServiceName+".Resources", protocol.ResourceQuery{}, &list); err != nil {
			t.Fatal(err)
		}
		for _, h := range list.Hosts {
			if len(h.RecentLoads) > 0 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no workload sample reached the resource-performance database")
}

// TestEchoFailureIsADetectorVote drives one Group Manager by hand (the
// hour-long period keeps the daemons and the wall-clock detector loop
// idle) through the reporter New wired for it, with and without Site
// Managers: a workload sample lands in the repository, while an echo
// failure changes nothing in the repository by itself — it is a vote, so
// the host's first silent evaluation round already meets the quorum of
// two and the detector, not the notice, publishes the down status.
func TestEchoFailureIsADetectorVote(t *testing.T) {
	for _, rpc := range []bool{false, true} {
		t.Run(fmt.Sprintf("rpc=%v", rpc), func(t *testing.T) {
			env := newEnv(t, Config{
				Testbed:       testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 26},
				UseRPC:        rpc,
				StartDaemons:  true,
				StartDetector: true,
				MonitorPeriod: time.Hour,
			})
			gm := env.Groups[0]
			host := env.TB.Sites[0].GroupHosts(gm.Group)[0]
			resources := env.Sites[0].Repo.Resources
			status := func() repository.HostStatus {
				v, ok := resources.View(host.Name)
				if !ok {
					t.Fatalf("no resource record for %s", host.Name)
				}
				return v.Status
			}

			t0 := time.Now()
			if err := gm.Ingest(host.Name, repository.WorkloadSample{Time: t0, CPULoad: 0.75}); err != nil {
				t.Fatal(err)
			}
			if v, _ := resources.View(host.Name); v.CPULoad != 0.75 {
				t.Fatalf("repository load = %v, want the forwarded 0.75", v.CPULoad)
			}

			host.Fail()
			if err := gm.EchoRound(t0.Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			if !gm.Down(host.Name) {
				t.Fatal("the echo round did not notice the failed host")
			}
			if got := status(); got != repository.HostUp {
				t.Fatalf("status after the echo notice = %s: the notice flipped it directly", got)
			}
			if _, err := env.Detector.Tick(t0.Add(5 * time.Hour)); err != nil {
				t.Fatal(err)
			}
			if st, _ := env.Detector.State(host.Name); st != detect.Dead {
				t.Fatalf("detector state after one silent round = %v, want dead (echo vote + silence = quorum)", st)
			}
			if got := status(); got != repository.HostDown {
				t.Fatalf("status after the detector confirmed = %s, want down", got)
			}
		})
	}
}

// TestSiteServicesAreDialedOncePerHome: in RPC mode every home site's
// remotes are dialed once and shared by Schedule, SchedulerAt and the
// pipeline, however many rounds run.
func TestSiteServicesAreDialedOncePerHome(t *testing.T) {
	const sites = 3
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: sites, HostsPerGroup: 2, Seed: 29},
		UseRPC:  true,
	})
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := env.Schedule(g, 2); err != nil {
			t.Fatal(err)
		}
	}
	for home := 0; home < sites; home++ {
		if _, err := env.SchedulerAt(home, 2); err != nil {
			t.Fatal(err)
		}
	}
	job, err := env.Submit(context.Background(), g, WithHomeSite(1), WithMaxHosts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	dialed := 0
	env.svcMu.Lock()
	for _, s := range env.svc {
		dialed += len(s.dialed)
	}
	env.svcMu.Unlock()
	if dialed != sites*(sites-1) {
		t.Fatalf("%d RPC clients dialed, want %d (one per ordered pair of sites)", dialed, sites*(sites-1))
	}
}

func TestRefreshMonitoring(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2}})
	if err := env.RefreshMonitoring(time.Now()); err != nil {
		t.Fatal(err)
	}
	h := env.TB.Sites[0].Hosts[0]
	rec, err := env.Sites[0].Repo.Resources.Host(h.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.RecentLoads) == 0 {
		t.Fatal("refresh recorded nothing")
	}
}
