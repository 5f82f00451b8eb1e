package vdce

// Chaos soak: hosts are killed (and some recovered) by the fault
// injector WHILE a 32-application submission wave executes, with the
// heartbeat failure detector running. Acceptance (ISSUE 4): every job
// reaches a deterministic terminal state, nothing hangs in Wait, and
// jobs whose tasks had viable alternate hosts complete successfully via
// detector-driven rescheduling. Under -short the scenario is bounded
// (fewer jobs, fewer kills) so the race-enabled run stays quick.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/chaos"
	"vdce/internal/detect"
	"vdce/internal/testbed"
)

// spinChain builds a 3-task pipeline: Spin -> Checksum -> Checksum.
func spinChain(t *testing.T, name string, ms int) *afg.Graph {
	t.Helper()
	g := afg.NewGraph(name)
	spin := g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(spin, afg.Properties{Args: map[string]string{"ms": fmt.Sprint(ms)}}); err != nil {
		t.Fatal(err)
	}
	c1 := g.AddTask("Checksum", "util", 1, 1)
	c2 := g.AddTask("Checksum", "util", 1, 1)
	if err := g.Connect(spin, 0, c1, 0, 1024); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(c1, 0, c2, 0, 1024); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChaosSoakKillAndRecoverUnderConcurrentSubmissions(t *testing.T) {
	jobsN, hostsPerSite, kills, recovers := 32, 8, 4, 2
	if testing.Short() {
		jobsN, hostsPerSite, kills, recovers = 12, 4, 2, 1
	}

	env, err := New(Config{
		Testbed: testbed.Config{
			Sites: 2, HostsPerGroup: hostsPerSite, Seed: 77,
			SpeedMin: 1, SpeedMax: 2, BaseLoadMax: 0.1, LoadSigma: 0.01,
		},
		StartDaemons:  true,
		MonitorPeriod: 10 * time.Millisecond,
		StartDetector: true,
		// Generous suspicion relative to the 10ms monitor period: a
		// loaded race-mode CI must not confirm a live host dead just
		// because its daemon tick slipped.
		Detect: detect.Config{
			SuspicionTimeout: 100 * time.Millisecond,
			ConfirmQuorum:    2,
			TickPeriod:       25 * time.Millisecond,
		},
		Pipeline: PipelineConfig{QueueDepth: 64, SchedulerWorkers: 4, MaxConcurrentRuns: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	// Dead hosts accumulate in the exclusion lists attempt by attempt
	// until the detector publishes them down; give tasks headroom to
	// outlast the confirmation window.
	env.Engine.MaxAttempts = 8
	env.Engine.LoadCheckPeriod = 2 * time.Millisecond

	// Submit the whole wave.
	jobs := make([]*Job, 0, jobsN)
	for i := 0; i < jobsN; i++ {
		g := spinChain(t, fmt.Sprintf("soak-%d", i), 25)
		job, err := env.Submit(context.Background(), g)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}

	// Wait until an early batch is scheduled so the kill set provably
	// intersects live placements, then kill 25% of the fleet — placed
	// hosts first, padded deterministically by the injector's seed.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		scheduled := 0
		for _, j := range jobs[:jobsN/4] {
			if j.Table() != nil {
				scheduled++
			}
		}
		if scheduled == jobsN/4 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	placed := make(map[string]bool)
	for _, j := range jobs[:jobsN/4] {
		if table := j.Table(); table != nil {
			for _, e := range table.Entries {
				placed[e.Hosts[0]] = true
			}
		}
	}
	placedNames := make([]string, 0, len(placed))
	for h := range placed {
		placedNames = append(placedNames, h)
	}
	if len(placedNames) == 0 {
		// Never fall through to fractional targeting here: an empty
		// explicit host list would silently kill a seeded 25% whose
		// names the victim assertions below would not know about.
		t.Fatal("no job scheduled within 30s; cannot pick placement-intersecting victims")
	}
	sort.Strings(placedNames)
	victims := placedNames
	if len(victims) > kills {
		victims = victims[:kills]
	}
	inj := chaos.NewInjector(env.TB, 7)
	if _, err := inj.Apply(chaos.Event{Action: chaos.Kill, Hosts: victims}); err != nil {
		t.Fatal(err)
	}
	if len(victims) < kills {
		// Pad to the full 25% with seeded picks from the survivors.
		a, err := inj.Apply(chaos.Event{Action: chaos.Kill,
			Fraction: float64(kills-len(victims)) / float64(2*hostsPerSite-len(victims))})
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, a.Targets...)
	}
	t.Logf("killed %v", victims)

	waitFor := func(cond func() bool) bool {
		end := time.Now().Add(10 * time.Second)
		for time.Now().Before(end) {
			if cond() {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return cond()
	}
	confirmed := func() bool {
		_, confirmations, _, _ := env.Detector.Stats()
		return int(confirmations) >= kills
	}
	// Recover some of the dead mid-wave, as the scenario demands — but
	// not before the detector has confirmed them (~150 ms after the kill
	// on an idle box): on a starved one a host back up inside its
	// suspicion window is never counted dead at all.
	go func() {
		time.Sleep(300 * time.Millisecond)
		waitFor(confirmed)
		_, _ = inj.Apply(chaos.Event{Action: chaos.Recover,
			Hosts: victims[:recovers]})
	}()

	// Every job must reach a terminal state: Drain bounds the whole wave
	// so a single job stuck in Wait fails loudly instead of hanging CI.
	drainCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		for _, j := range jobs {
			if j.State() != JobDone && j.State() != JobFailed && j.State() != JobCanceled {
				t.Errorf("job %s stuck in %s", j.ID, j.State())
			}
		}
		t.Fatalf("drain: %v", err)
	}

	// With 75% of the fleet alive and Spin/Checksum eligible everywhere,
	// every job had viable alternates: all must have completed, the
	// failed attempts absorbed by detector-driven rescheduling.
	totalReschedules, jobsWithFailedHosts := 0, 0
	for _, j := range jobs {
		if err := j.Wait(context.Background()); err != nil {
			t.Errorf("job %s (%s): %v [reschedules=%d failed_hosts=%v]",
				j.ID, j.State(), err, j.Reschedules(), j.FailedHosts())
			continue
		}
		if j.State() != JobDone {
			t.Errorf("job %s terminal state = %s, want done", j.ID, j.State())
		}
		st := j.Status()
		if st.Reschedules != j.Reschedules() {
			t.Errorf("job %s status reschedules %d != handle %d", j.ID, st.Reschedules, j.Reschedules())
		}
		totalReschedules += j.Reschedules()
		if len(st.FailedHosts) > 0 {
			jobsWithFailedHosts++
			for _, h := range st.FailedHosts {
				found := false
				for _, v := range victims {
					if v == h {
						found = true
					}
				}
				if !found {
					t.Errorf("job %s reports non-victim failed host %s", j.ID, h)
				}
			}
		}
	}
	if totalReschedules == 0 {
		t.Error("no job rescheduled despite kills intersecting live placements")
	}
	if jobsWithFailedHosts == 0 {
		t.Error("no job surfaced failed_hosts despite mid-run kills")
	}

	// The detector must confirm the kills. It does so a suspicion timeout
	// plus a quorum of ticks after the kill, on its own clock: the wave —
	// whose tasks the local watchdogs move off a crashed host within
	// milliseconds — can drain before that.
	if !waitFor(confirmed) {
		_, confirmations, _, _ := env.Detector.Stats()
		t.Errorf("detector confirmed %d deaths, want >= %d", confirmations, kills)
	}
	// ...and the recovered hosts must rejoin: repository up again and the
	// detector reporting them alive, within the heartbeat cadence.
	for _, h := range victims[:recovers] {
		host := h
		if !waitFor(func() bool {
			st, ok := env.Detector.State(host)
			return ok && st.Alive()
		}) {
			st, _ := env.Detector.State(host)
			t.Errorf("recovered host %s never rejoined (detector state %s)", host, st)
		}
	}
}

// TestDetectorRecoversPartitionedSiteUnderLoad drives the detector-only
// path end to end through the public pipeline: a host is partitioned —
// never Failed, so the engine watchdog cannot see it locally — while
// its tasks run; only heartbeat silence, quorum confirmation, and the
// engine's dead-set interruption can move the work and finish the jobs.
func TestDetectorRecoversPartitionedHostUnderLoad(t *testing.T) {
	env, err := New(Config{
		Testbed: testbed.Config{
			Sites: 1, HostsPerGroup: 4, Seed: 21,
			SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.05, LoadSigma: 0.01,
		},
		StartDaemons:  true,
		MonitorPeriod: 10 * time.Millisecond,
		StartDetector: true,
		// Suspicion must stay far above the monitor period: a stalled
		// daemon tick on a loaded CI machine must not read as death.
		Detect: detect.Config{
			SuspicionTimeout: 100 * time.Millisecond,
			ConfirmQuorum:    2,
			TickPeriod:       25 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.Engine.MaxAttempts = 8
	env.Engine.LoadCheckPeriod = 2 * time.Millisecond

	// A long spin pinned by scheduling to the fastest host; it must
	// outlast suspicion + quorum confirmation by a wide margin.
	g := spinChain(t, "partition-victim", 600)
	job, err := env.Submit(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for placement, then partition the primary host of the spin.
	var victim string
	for victim == "" {
		if table := job.Table(); table != nil {
			victim = table.Entries[0].Hosts[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the task start
	h, err := env.TB.Host(victim)
	if err != nil {
		t.Fatal(err)
	}
	h.Partition()
	defer h.Heal()
	if h.Failed() {
		t.Fatal("partitioned host reports Failed; the watchdog would bypass the detector")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		t.Fatalf("job did not survive the partition: %v (state %s, reschedules %d)",
			err, job.State(), job.Reschedules())
	}
	if job.Reschedules() < 1 {
		t.Fatalf("reschedules = %d; the spin should have moved off %s", job.Reschedules(), victim)
	}
	// The patched table must show the task's final host, not the victim.
	if table := job.Table(); table.Entries[0].Hosts[0] == victim {
		t.Errorf("table still places the spin on the partitioned host")
	}
	fh := job.FailedHosts()
	if len(fh) != 1 || fh[0] != victim {
		t.Errorf("failed hosts = %v, want [%s]", fh, victim)
	}
	if res := job.Result(); res == nil || len(res.FailedHosts) == 0 {
		t.Error("result missing failed-host accounting")
	} else if res.Rescheduled != job.Reschedules() {
		t.Errorf("result reschedules %d != live counter %d", res.Rescheduled, job.Reschedules())
	}
}
