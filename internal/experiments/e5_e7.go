package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"vdce/internal/afg"
	"vdce/internal/control"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/exec"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// E5Monitoring reproduces the Resource Controller pipeline of Fig. 4 and
// quantifies the Group Manager's significant-change filter: for each
// threshold, how many monitor samples reach the site's
// resource-performance database, and how stale the database gets (mean
// absolute load error versus ground truth at the end of the run).
func E5Monitoring(thresholds []float64, hosts, rounds int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Group Manager change filtering (%d hosts, %d monitor rounds)", hosts, rounds),
		Header: []string{"threshold", "forwarded", "forwarded %", "mean |db err|"},
	}
	for _, thr := range thresholds {
		tb, err := testbed.Build(testbed.Config{
			Sites: 1, HostsPerGroup: hosts, Seed: seed, BaseLoadMax: 0.6, LoadSigma: 0.04,
		})
		if err != nil {
			return nil, err
		}
		site := tb.Sites[0]
		det := detect.New(detect.Config{})
		det.AddSite(site.Name, site.Repo.Resources)
		gm := control.NewGroupManager("g0", site.Hosts, site.Repo.Resources, det, time.Hour)
		gm.Threshold = thr
		gm.MemThreshold = 1 << 40 // isolate the load trigger

		for r := 0; r < rounds; r++ {
			now := time.Unix(int64(r), 0)
			for _, h := range site.Hosts {
				s := h.Sample(now)
				if err := gm.Ingest(h.Name, s); err != nil {
					return nil, err
				}
			}
		}
		// Database staleness: repo load vs live host load.
		var errSum float64
		for _, h := range site.Hosts {
			rec, err := site.Repo.Resources.Host(h.Name)
			if err != nil {
				return nil, err
			}
			errSum += math.Abs(rec.CPULoad - h.CurrentLoad())
		}
		recv, fwd, _ := gm.Stats()
		t.Add(thr, fwd, fmt.Sprintf("%.1f", float64(fwd)/float64(recv)*100),
			fmt.Sprintf("%.4f", errSum/float64(hosts)))
	}
	t.Note("higher thresholds cut Site Manager traffic at the cost of database staleness")
	return t, nil
}

// E6FailureDetect measures the product's failure-detection chain of
// §4.1 in virtual time: every echo period each reachable host's monitor
// sample reaches the Group Manager (a heartbeat), the manager's echo
// round turns a newly silent host into a suspicion vote, and the
// detector, configured as vdce.New configures it, evaluates one round.
// A failure lands uniformly inside an echo interval; its latency is the
// time until the detector confirms it and the repository reads down.
// Hosts that never failed count as false positives if the detector ever
// suspects them.
func E6FailureDetect(periods []time.Duration, trials int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "Echo failure detection latency (Group Manager + detector)",
		Header: []string{"echo period", "suspicion timeout", "mean latency", "max latency",
			"paper mean (period/2)", "detected", "false positives"},
	}
	for _, period := range periods {
		tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: 8, Seed: seed})
		if err != nil {
			return nil, err
		}
		site := tb.Sites[0]
		timeout := 4 * period
		det := detect.New(detect.Config{SuspicionTimeout: timeout, TickPeriod: period})
		det.AddSite(site.Name, site.Repo.Resources)
		gm := control.NewGroupManager("g0", site.Hosts, site.Repo.Resources, det, time.Hour)
		// round is one synthetic period: heartbeats, echoes, one
		// detector round.
		round := func(now time.Time) error {
			for _, h := range site.Hosts {
				if h.Reachable() {
					if err := gm.Ingest(h.Name, h.Sample(now)); err != nil {
						return err
					}
				}
			}
			gm.EchoRound(now)
			_, err := det.Tick(now)
			return err
		}
		var victim *testbed.Host
		falsePos := 0
		det.Subscribe(func(tr detect.Transition) {
			if tr.Host != victim.Name && (tr.To == detect.Suspect || tr.To == detect.Dead) {
				falsePos++
			}
		})
		var latSum, latMax time.Duration
		detected := 0
		rng := newRng(seed)
		for trial := 0; trial < trials; trial++ {
			victim = site.Hosts[trial%len(site.Hosts)]
			// The victim's last heartbeat is the round at the trial
			// epoch; the failure lands uniformly in the interval after it.
			epoch := time.Unix(int64(trial)*1000, 0)
			if err := round(epoch); err != nil {
				return nil, err
			}
			failAt := epoch.Add(time.Duration(rng.Int63n(int64(period))))
			victim.Fail()
			var detectAt time.Time
			for r := 1; r <= int(timeout/period)+3 && detectAt.IsZero(); r++ {
				now := epoch.Add(time.Duration(r) * period)
				if err := round(now); err != nil {
					return nil, err
				}
				// Detected means the repository reads down (Fig. 4 step 3).
				if v, _ := site.Repo.Resources.View(victim.Name); v.Status == repository.HostDown {
					detectAt = now
				}
			}
			if !detectAt.IsZero() {
				detected++
				lat := detectAt.Sub(failAt)
				latSum += lat
				latMax = max(latMax, lat)
			}
			victim.Recover()
			if err := round(epoch.Add(500 * time.Second)); err != nil {
				return nil, err
			}
			if v, _ := site.Repo.Resources.View(victim.Name); v.Status != repository.HostUp {
				return nil, fmt.Errorf("E6: %s reads %s after answering again", victim.Name, v.Status)
			}
		}
		mean := time.Duration(0)
		if detected > 0 {
			mean = latSum / time.Duration(detected)
		}
		t.Add(period.String(), timeout.String(), mean.String(), latMax.String(), (period / 2).String(),
			fmt.Sprintf("%d/%d", detected, trials), falsePos)
	}
	t.Note("model: down comes in the first detector round more than the suspicion timeout after the last heartbeat (the echo vote and that round's silence meet the quorum of two), so latency lies in (timeout, timeout + period] when the timeout is a whole number of periods")
	t.Note("the paper's bare echo marks a host down at the first missed echo (mean period/2); the product trades that for no false positive from one lost report")
	return t, nil
}

// E7Reschedule reproduces §4.1's Application Controller threshold: a
// contention burst lands on the host running a chain of tasks; with
// rescheduling the work moves away, without it the run drags through the
// overload. Real execution with framed data channels.
func E7Reschedule(spinMs int, contention float64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("Load-threshold rescheduling under a %.0f%% contention burst", contention*100),
		Header: []string{"mode", "makespan", "reschedules", "final host moved"},
	}
	run := func(withReschedule bool) (time.Duration, int, bool, error) {
		tb, err := testbed.Build(testbed.Config{
			Sites: 1, HostsPerGroup: 2, Seed: 31,
			SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.0001,
		})
		if err != nil {
			return 0, 0, false, err
		}
		site := tb.Sites[0]
		names := []string{site.Hosts[0].Name, site.Hosts[1].Name}
		if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
			return 0, 0, false, err
		}
		local := core.NewLocalSite(site.Repo)
		engine := &exec.Engine{
			Reg: tasklib.Default(), TB: tb,
			LoadCheckPeriod: time.Millisecond, Health: detect.New(detect.Config{}),
		}
		if withReschedule {
			engine.LoadThreshold = 0.7
			engine.Reschedule = exec.NewRescheduler([]*core.LocalSite{local})
		} else {
			// Threshold disabled: the task stays on the overloaded host.
			engine.LoadThreshold = 0
			// Dilation makes the overload actually slow the task down.
			engine.DilationScale = 1
		}
		g := afg.NewGraph("burst")
		id := g.AddTask("Spin", "util", 0, 1)
		if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": fmt.Sprint(spinMs)}}); err != nil {
			return 0, 0, false, err
		}
		table := &core.AllocationTable{App: "burst", Entries: []core.Placement{{
			Task: id, TaskName: "Spin", Site: site.Name,
			Hosts: []string{site.Hosts[0].Name}, Predicted: time.Duration(spinMs) * time.Millisecond,
		}}}
		// Contention burst arrives immediately.
		site.Hosts[0].InjectLoad(contention)
		res, err := engine.Execute(context.Background(), g, table)
		if err != nil {
			return 0, 0, false, err
		}
		last := res.Runs[len(res.Runs)-1]
		return res.Makespan, res.Rescheduled, last.Host == site.Hosts[1].Name, nil
	}

	withMs, withCount, moved, err := run(true)
	if err != nil {
		return nil, err
	}
	withoutMs, withoutCount, _, err := run(false)
	if err != nil {
		return nil, err
	}
	t.Add("reschedule on", withMs.Round(time.Millisecond).String(), withCount, moved)
	t.Add("reschedule off", withoutMs.Round(time.Millisecond).String(), withoutCount, false)
	t.Note("rescheduling moves the task off the overloaded host; disabled runs pay the dilated overload")
	return t, nil
}
