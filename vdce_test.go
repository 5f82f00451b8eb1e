package vdce

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/detect"
	"vdce/internal/editor"
	"vdce/internal/exec"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

func newEnv(t testing.TB, cfg Config) *Environment {
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
	if _, err := env.taskCosts(g, nil); err == nil {
		t.Fatal("unknown task cost accepted")
	}
	if _, err := env.Schedule(g, 1); err == nil {
		t.Fatal("a round over an unknown task succeeded")
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
// resource-performance database as vdce-monitor reads it, over
// GET /v1/hosts (Environment.Hosts); a daemon sample must show up there.
func TestDaemonsFeedVisualization(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:       testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 26},
		StartDaemons:  true,
		MonitorPeriod: 5 * time.Millisecond,
	})
	registered := make(map[string]float64)
	for _, h := range env.TB.Sites[0].Hosts {
		registered[h.Name] = h.Info().CPULoad
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, h := range env.Hosts() {
			if h.CPULoad != registered[h.Host] {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no workload sample reached the resource-performance database")
}

// TestHostsRowIsWhatTheSchedulerSees: GET /v1/hosts serves the
// repository row the scheduler reads. A host the detector confirms dead
// (monitor rounds on a synthetic clock, then a detector round) reads
// down and dead, and is missing from the site's up hosts; after it
// reports again and the next round runs, it reads up.
func TestHostsRowIsWhatTheSchedulerSees(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 5},
		Detect:  detect.Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1},
	})
	site := env.TB.Sites[0]
	victim := site.Hosts[1]
	row := func() services.HostStatus {
		t.Helper()
		for _, h := range env.Hosts() {
			if h.Host == victim.Name {
				return h
			}
		}
		t.Fatalf("GET /v1/hosts has no row for %s", victim.Name)
		return services.HostStatus{}
	}
	schedulable := func() bool {
		for _, v := range site.Repo.Snapshot().UpHosts() {
			if v.HostName == victim.Name {
				return true
			}
		}
		return false
	}
	t0 := time.Unix(2000, 0)
	if err := env.RefreshMonitoring(t0); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(t0); err != nil {
		t.Fatal(err)
	}
	r := row()
	if r.Status != "up" || r.Detector != "healthy" || !schedulable() {
		t.Fatalf("healthy row %+v (schedulable %v)", r, schedulable())
	}
	v, _ := site.Repo.Resources.View(victim.Name)
	if r.Group != v.Group || r.CPULoad != v.CPULoad || r.AvailMemBytes != v.AvailMem ||
		r.Arch != v.ArchType || r.OS != v.OSType || r.Speed != v.SpeedFactor {
		t.Fatalf("row %+v does not match the repository's %+v", r, v)
	}

	victim.Fail()
	if err := env.RefreshMonitoring(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if r := row(); r.Status != "down" || r.Detector != "dead" || r.Up || schedulable() {
		t.Fatalf("confirmed-dead row %+v (schedulable %v), want down, dead, not up, not schedulable", r, schedulable())
	}

	victim.Recover()
	if err := env.RefreshMonitoring(t0.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(t0.Add(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if r := row(); r.Status != "up" || r.Detector != "recovered" || !r.Up || !schedulable() {
		t.Fatalf("recovered row %+v (schedulable %v), want up, recovered, schedulable", r, schedulable())
	}
}

// TestEchoFailureIsADetectorVote drives one Group Manager by hand (the
// hour-long period keeps the daemons and the wall-clock detector loop
// idle) as New wired it, to the site's repository and the detector: a
// workload sample lands in the repository, while an echo failure
// changes nothing in the repository by itself — it is a vote, so the
// host's first silent evaluation round already meets the quorum of two
// and the detector, not the echo, publishes the down status.
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
		gm.EchoRound(t0.Add(time.Second))
		if !gm.Down(host.Name) {
			t.Fatal("the echo round did not notice the failed host")
		}
		if got := status(); got != repository.HostUp {
			t.Fatalf("status after the echo miss = %s: the echo flipped it directly", got)
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
