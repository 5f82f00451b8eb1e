package vdce

import (
	"context"
	"errors"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/control"
	"vdce/internal/detect"
	"vdce/internal/editor"
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

// submitWait submits g from site 0 with k neighbor sites and waits for
// the job to end: the examples' way to run one application.
func submitWait(ctx context.Context, env *Environment, g *afg.Graph, k int) (*Job, error) {
	job, err := env.Submit(ctx, g, WithHomeSite(0), WithMaxHosts(k))
	if err != nil {
		return nil, err
	}
	return job, job.Wait(ctx)
}

// TestEnvironmentEndToEndInProcess schedules and runs two applications
// through the submission pipeline: the linear equation solver from one
// of two sites, and the C3I pipeline from one of three sites with two
// neighbours in the round.
func TestEnvironmentEndToEndInProcess(t *testing.T) {
	t.Run("les", func(t *testing.T) {
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
		job, err := submitWait(context.Background(), env, g, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Table().Validate(g); err != nil {
			t.Fatal(err)
		}
		res := job.Result()
		residual := res.Outputs[g.Exits()[0]][0].(float64)
		if residual > 1e-7 {
			t.Fatalf("residual %g", residual)
		}
	})
	t.Run("c3i", func(t *testing.T) {
		env := newEnv(t, Config{
			Testbed: testbed.Config{Sites: 3, HostsPerGroup: 2, Seed: 22, BaseLoadMax: 0.2},
		})
		g, err := tasklib.BuildC3IPipeline(16, 4)
		if err != nil {
			t.Fatal(err)
		}
		job, err := submitWait(context.Background(), env, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Table().Validate(g); err != nil {
			t.Fatal(err)
		}
		res := job.Result()
		report := res.Outputs[g.Exits()[0]][0].(string)
		if !strings.Contains(report, "C3I THREAT REPORT") {
			t.Fatalf("report = %q", report)
		}
	})
}

// TestShutdownReleasesTheDataManager: a run with dataflow edges counts
// its frames in the engine's tallies, which the /metrics series are
// bridged from; Close and Crash both keep the tallies and refuse every
// later run: the pipeline with ErrPipelineClosed, the engine with
// ErrEngineClosed.
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
			job, err := submitWait(context.Background(), env, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := env.Engine.TransferStats()
			if st.Frames != int64(len(g.Edges)) || st.Bytes <= 0 {
				t.Fatalf("after a %d-edge run: %+v", len(g.Edges), st)
			}
			for series, want := range map[string]int64{
				"vdce_exec_frames_total":         st.Frames,
				"vdce_exec_transfer_bytes_total": st.Bytes,
			} {
				if got := env.Obs.Total(series); got != float64(want) {
					t.Errorf("%s = %v, want %d", series, got, want)
				}
			}
			stop(env)
			if after := env.Engine.TransferStats(); after != st {
				t.Fatalf("after shutdown: %+v, want the tallies kept at %+v", after, st)
			}
			if _, err := env.Submit(context.Background(), g); !errors.Is(err, ErrPipelineClosed) {
				t.Fatalf("submit after shutdown: %v, want ErrPipelineClosed", err)
			}
			if _, err := env.Engine.Execute(context.Background(), g, job.Table()); !errors.Is(err, exec.ErrEngineClosed) {
				t.Fatalf("execute after shutdown: %v, want ErrEngineClosed", err)
			}
		})
	}
}

// TestEnvironmentDaemonsMaintainRepos: with the daemons running, a
// failed host's echo timeout is a vote, its silence confirms it to the
// failure detector, and the detector's round marks it down.
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
	srv := env.EditorServer(0)
	// Authenticate against the pre-provisioned account and submit a tiny
	// app through the same JobSubmitter the HTTP handler uses.
	if _, err := env.Sites[0].Repo.Users.Authenticate("user_k", "vdce"); err != nil {
		t.Fatal(err)
	}
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := srv.SubmitJob(ctx, "user_k", g, editor.JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Owner != "user_k" {
		t.Fatalf("admission status %+v: want a job ID owned by user_k", st)
	}
	if err := env.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := env.Job(st.ID); !ok || got.State != JobDone.String() {
		t.Fatalf("job %s after drain: %+v (found %v), want done", st.ID, got, ok)
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
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	job, err := env.Submit(ctx, g, WithOwner("loc"), WithMaxHosts(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, e := range job.Table().Entries {
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
		StartDaemons:  true,
		MonitorPeriod: 5 * time.Millisecond,
	})
	site := env.TB.Sites[0]
	sm, err := control.StartSiteManager(site.Name, site.Repo, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	client, err := rpc.Dial("tcp", sm.Addr())
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
// idle) through the reporter New wired for it: a workload sample lands
// in the repository, while an echo failure changes nothing in the
// repository by itself — it is a vote, so the host's first silent
// evaluation round already meets the quorum of two and the detector, not
// the notice, publishes the down status.
func TestEchoFailureIsADetectorVote(t *testing.T) {
	// Sites call each other in process; the subtest keeps the name of
	// that route from when a site could also be reached over RPC.
	t.Run("rpc=false", func(t *testing.T) {
		env := newEnv(t, Config{
			Testbed:       testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 26},
			StartDaemons:  true,
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

// TestRefreshMonitoringLeavesStatusToTheDetector: a synchronous monitor
// round writes workload samples and heartbeats only. A failed host stays up until a detector round
// confirms it, and a quarantined host stays quarantined across a
// refresh.
func TestRefreshMonitoringLeavesStatusToTheDetector(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2},
		Detect:  detect.Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1},
	})
	resources := env.Sites[0].Repo.Resources
	view := func(h *testbed.Host) repository.HostView {
		t.Helper()
		v, ok := resources.View(h.Name)
		if !ok {
			t.Fatalf("no resource record for %s", h.Name)
		}
		return v
	}
	failed, flaky := env.TB.Sites[0].Hosts[0], env.TB.Sites[0].Hosts[1]
	t0 := time.Unix(1000, 0)
	if err := env.RefreshMonitoring(t0); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(t0); err != nil {
		t.Fatal(err)
	}

	failed.Fail()
	if err := env.RefreshMonitoring(t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := view(failed).Status; got != repository.HostUp {
		t.Fatalf("failed host marked %s by a monitor round, before any detector round", got)
	}
	for i := 0; i < 4; i++ {
		env.Detector.RecordOutcome(flaky.Name, false)
	}
	if _, err := env.Detector.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := view(failed).Status; got != repository.HostDown {
		t.Fatalf("failed host marked %s after the detector confirmed it, want down", got)
	}
	if got := view(flaky).Status; got != repository.HostQuarantined {
		t.Fatalf("flaky host marked %s, want quarantined", got)
	}

	at := t0.Add(3 * time.Second)
	if err := env.RefreshMonitoring(at); err != nil {
		t.Fatal(err)
	}
	if v := view(flaky); v.Status != repository.HostQuarantined || !v.LastSeen.Equal(at) {
		t.Fatalf("after a refresh the flaky host reads %s, last seen %v; want quarantined, sampled at %v",
			v.Status, v.LastSeen, at)
	}
}
