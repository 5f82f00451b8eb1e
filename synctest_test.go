//go:build goexperiment.synctest

package vdce

import (
	"context"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"vdce/internal/afg"
	"vdce/internal/testbed"
)

// TestHeldHostsLetTheFakeClockRun runs a whole environment in a synctest
// bubble, where time moves only when every goroutine is durably blocked:
// four jobs of twelve 65 ms Spins from three home sites over 27 hosts.
// A task waiting for a busy host waits on the host's run slot, a channel,
// so the fake clock moves past the Spins that hold the hosts and every
// job finishes; a mutex in its place stops the clock and hangs the
// bubble. Run with GOEXPERIMENT=synctest.
func TestHeldHostsLetTheFakeClockRun(t *testing.T) {
	const jobs, tasks, spin = 4, 12, 65 * time.Millisecond
	synctest.Run(func() {
		env, err := New(Config{
			Testbed:       testbed.Config{Sites: 3, GroupsPerSite: 3, HostsPerGroup: 3, Seed: 5104},
			DilationScale: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		g := afg.NewGraph("spins")
		for range tasks {
			id := g.AddTask("Spin", "util", 0, 1)
			g.Tasks[id].Props.Args = map[string]string{"ms": "65"}
		}
		start := time.Now()
		var wg sync.WaitGroup
		makespans := make([]time.Duration, jobs)
		for i := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				job, err := env.Submit(ctx, g, WithHomeSite(i%len(env.Sites)), WithMaxHosts(2))
				if err == nil {
					err = job.Wait(ctx)
				}
				if err != nil {
					t.Error(err)
					return
				}
				makespans[i] = job.Result().Makespan
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// The Spins of one job run no faster than side by side and no
		// slower than every Spin of every job in series.
		elapsed := time.Since(start)
		if elapsed < spin || elapsed > 2*jobs*tasks*spin {
			t.Fatalf("%d jobs of %d Spins took %v of fake time", jobs, tasks, elapsed)
		}
		t.Logf("%d jobs of %d %v Spins: %v of fake time, makespans %v", jobs, tasks, spin, elapsed, makespans)
		if err := env.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
