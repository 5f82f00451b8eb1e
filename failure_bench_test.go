package vdce

// BenchmarkFailureRecovery measures the kill -> confirmed -> rescheduled
// latency of mid-run fault recovery, per failure flavor:
//
//   - crash: the host model fails visibly, so the Application
//     Controller's watchdog catches it on its next check period — the
//     pre-detector ("before") path.
//   - partition: the host keeps computing but goes silent; only the
//     heartbeat failure detector (suspicion timeout + confirmation
//     quorum) can interrupt the task — the detector-driven ("after")
//     path this PR adds. Its latency is dominated by the configured
//     detection cadence, not by execution machinery.
//
// The custom metric ms/recovery is the time from fault injection to the
// task's reschedule event. Recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/detect"
	"vdce/internal/exec"
	"vdce/internal/repository"
	"vdce/internal/testbed"
)

func BenchmarkFailureRecovery(b *testing.B) {
	b.Run("crash", func(b *testing.B) { benchFailureRecovery(b, false) })
	b.Run("partition", func(b *testing.B) { benchFailureRecovery(b, true) })
}

func benchFailureRecovery(b *testing.B, partition bool) {
	env, err := New(Config{
		Testbed: testbed.Config{
			Sites: 1, HostsPerGroup: 4, Seed: 31,
			SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.05, LoadSigma: 0.01,
		},
		StartDaemons:  true,
		MonitorPeriod: 10 * time.Millisecond,
		// Suspicion sits well above the monitor period: the spin tasks
		// are real busy loops, and a starved daemon tick must not read
		// as a second host death mid-measurement.
		Detect: detect.Config{
			SuspicionTimeout: 60 * time.Millisecond,
			ConfirmQuorum:    2,
			TickPeriod:       20 * time.Millisecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	env.Engine.MaxAttempts = 8
	env.Engine.LoadCheckPeriod = time.Millisecond

	var total time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := afg.NewGraph(fmt.Sprintf("bench-%d", i))
		id := g.AddTask("Spin", "util", 0, 1)
		if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "250"}}); err != nil {
			b.Fatal(err)
		}
		table, err := env.Schedule(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		victim := table.Entries[0].Hosts[0]
		h, err := env.TB.Host(victim)
		if err != nil {
			b.Fatal(err)
		}

		rescheduled := make(chan time.Time, 1)
		done := make(chan error, 1)
		go func() {
			_, err := env.Engine.Execute(context.Background(), g, table,
				exec.WithEventSink(func(ev exec.Event) {
					if ev.Type == exec.EventRescheduled {
						select {
						case rescheduled <- time.Now():
						default:
						}
					}
				}))
			done <- err
		}()

		time.Sleep(15 * time.Millisecond) // let the spin start
		t0 := time.Now()
		if partition {
			h.Partition()
		} else {
			h.Fail()
		}
		select {
		case at := <-rescheduled:
			total += at.Sub(t0)
		case <-time.After(30 * time.Second):
			b.Fatal("no reschedule within 30s")
		}
		if err := <-done; err != nil {
			b.Fatalf("run failed: %v", err)
		}

		// Heal and wait for the detector to readmit the victim so the
		// next iteration starts from a clean fleet.
		if partition {
			h.Heal()
		} else {
			h.Recover()
		}
		cleanBy := time.Now().Add(30 * time.Second)
		for time.Now().Before(cleanBy) {
			st, ok := env.Detector.State(victim)
			v, has := env.Sites[0].Repo.Resources.View(victim)
			if ok && st.Alive() && has && v.Status == repository.HostUp {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(total.Microseconds())/1000/float64(b.N), "ms/recovery")
	}
}
