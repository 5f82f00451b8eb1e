package exec

// A run's blocking waits — a task held at a suspended console, a retry
// pause before a reschedule — are waits on the run's one monitoring
// loop, whose clock is a pooled timer: no context or timer of their own.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

// awaiting reports whether some goroutine of the process waits on a run's
// monitoring loop.
func awaiting() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "exec.(*appController).await(")
}

// TestSiblingFailureEndsBlockingWaits: a task fails while a sibling
// waits at the suspended console or in a minute-long retry pause. The
// run returns within one check period of the failure, with the failing
// task's error, and every goroutine it started is gone.
func TestSiblingFailureEndsBlockingWaits(t *testing.T) {
	const period = 200 * time.Millisecond
	for _, tc := range []struct {
		name string
		// setup adds the sibling that waits while task 0 fails; task 0
		// closes failing once it is past the console.
		setup func(t *testing.T, r *rig, g *afg.Graph, failing <-chan struct{})
	}{
		{"console", func(t *testing.T, r *rig, g *afg.Graph, failing <-chan struct{}) {
			// A producer suspends the console as it finishes, so the
			// consumer it fires waits at the console.
			r.engine.Console = services.NewConsole()
			reg(t, r, tasklib.Spec{Name: "Suspend", OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
				<-failing
				r.engine.Console.Suspend()
				return []tasklib.Value{1.0}, nil
			}})
			src := g.AddTask("Suspend", "test", 0, 1)
			dst := g.AddTask("Pass_Through", "util", 1, 1)
			if err := g.Connect(src, 0, dst, 0, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"retry-pause", func(t *testing.T, r *rig, g *afg.Graph, _ <-chan struct{}) {
			// A task on a partitioned host cannot deliver: its controller
			// reschedules it after a minute's backoff.
			r.engine.Retry = RetryConfig{BaseDelay: 2 * time.Minute, MaxDelay: 2 * time.Minute, Seed: 1}
			g.AddTask("Vector_Generate", "matrix", 0, 1)
			r.tb.Sites[0].Hosts[1].Partition()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3)
			r.engine.LoadCheckPeriod = period
			failing, failedAt := make(chan struct{}), make(chan time.Time, 1)
			reg(t, r, tasklib.Spec{Name: "Fail", OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
				close(failing)
				for !awaiting() {
					time.Sleep(time.Millisecond)
				}
				failedAt <- time.Now()
				return nil, errors.New("boom")
			}})
			g := afg.NewGraph(tc.name)
			g.AddTask("Fail", "test", 0, 1)
			tc.setup(t, r, g, failing)
			before := runtime.NumGoroutine()
			_, err := r.engine.Execute(context.Background(), g, onePerHost(r, g))
			returned := time.Now()
			if err == nil || !strings.Contains(err.Error(), "task 0 (Fail): boom") {
				t.Fatalf("Execute = %v, want the failing task's error", err)
			}
			if d := returned.Sub(<-failedAt); d > period+100*time.Millisecond {
				t.Fatalf("Execute returned %v after the failure, check period %v", d, period)
			}
			if !waitForLoad(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
				t.Fatalf("goroutines: %d before the run, %d after", before, runtime.NumGoroutine())
			}
		})
	}
}

// reg adds one test task to the rig's catalog.
func reg(t *testing.T, r *rig, spec tasklib.Spec) {
	t.Helper()
	spec.Library = "test"
	if err := r.engine.Reg.Register(spec); err != nil {
		t.Fatal(err)
	}
}

// TestPooledClockHoldsNoStaleTick: dilated runs with a 50 µs check
// period reset their loop's timer to every wake-up and put it back, often
// just after it fired unread. A timer taken from the pool and reset to an
// hour, as the next run's loop does, holds no tick.
func TestPooledClockHoldsNoStaleTick(t *testing.T) {
	r := newRig(t, 2)
	r.engine.DilationScale = 1
	r.engine.LoadCheckPeriod = 50 * time.Microsecond
	g, table := chain(t, r, "Vector_Generate", map[string]string{"n": "64", "seed": "1"})
	var clocks []*time.Timer
	for range 8 {
		if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // past the last period the loop set
		if clock, _ := r.engine.clocks.Get().(*time.Timer); clock != nil {
			clocks = append(clocks, clock)
		}
	}
	if len(clocks) == 0 {
		t.Fatal("no run put its clock back")
	}
	for _, clock := range clocks {
		clock.Reset(time.Hour)
		select {
		case <-clock.C:
			t.Fatal("a pooled clock woke on a stale tick")
		case <-time.After(time.Millisecond):
		}
		clock.Stop()
	}
}
