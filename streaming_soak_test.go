package vdce

// Streaming soak (ISSUE 6): 32 bounded event subscribers — some
// deliberately slow — stay attached to the pipeline's broker while a
// submission wave executes under fault injection. Acceptance: the
// publisher never blocks (the wave drains on schedule), every
// subscriber observes strictly monotonic cursors, slow consumers are
// evicted rather than stalling the pipeline, and fast consumers see the
// full event history. Run under -race in CI.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vdce/internal/chaos"
	"vdce/internal/detect"
	"vdce/internal/jobsapi"
	"vdce/internal/testbed"
)

func TestStreamingSoak32SubscribersUnderChaos(t *testing.T) {
	jobsN, hostsPerSite := 24, 8
	if testing.Short() {
		jobsN, hostsPerSite = 10, 4
	}
	const subsN = 32

	env, err := New(Config{
		Testbed: testbed.Config{
			Sites: 2, HostsPerGroup: hostsPerSite, Seed: 79,
			SpeedMin: 1, SpeedMax: 2, BaseLoadMax: 0.1, LoadSigma: 0.01,
		},
		StartDaemons:  true,
		MonitorPeriod: 10 * time.Millisecond,
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
	env.Engine.MaxAttempts = 8
	env.Engine.LoadCheckPeriod = 2 * time.Millisecond

	type subReport struct {
		events  int
		evicted bool
		ordered bool
	}
	reports := make([]subReport, subsN)
	stop := make(chan struct{})
	var final uint64 // the broker's cursor once the wave drained, set before stop closes
	var wg sync.WaitGroup
	for i := 0; i < subsN; i++ {
		// A spread of buffer sizes: the smallest are meant to fall behind
		// and be evicted; the largest must keep up with everything.
		buffer := 4 << (i % 4 * 2) // 4, 16, 64, 256
		sub, _, _ := env.pipe.events.Subscribe(0, buffer, nil)
		wg.Add(1)
		go func(i int, sub *jobsapi.Subscriber, slow bool) {
			defer wg.Done()
			rep := subReport{ordered: true}
			var last uint64
			for {
				select {
				case ev, open := <-sub.C:
					if !open {
						rep.evicted = sub.Evicted()
						reports[i] = rep
						return
					}
					if ev.Cursor <= last {
						rep.ordered = false
					}
					last = ev.Cursor
					rep.events++
					if slow {
						// A deliberately slow consumer: must be evicted, never
						// allowed to backpressure the pipeline.
						time.Sleep(2 * time.Millisecond)
					}
				case <-stop:
					// Close ends delivery at once: read what the wave
					// published first. C closes early only on eviction.
					for last < final {
						ev, open := <-sub.C
						if !open {
							break
						}
						if ev.Cursor <= last {
							rep.ordered = false
						}
						last = ev.Cursor
						rep.events++
					}
					sub.Close()
					rep.evicted = sub.Evicted()
					reports[i] = rep
					return
				}
			}
		}(i, sub, i%8 == 0)
	}

	// The wave, with a quarter of the fleet killed once placements are
	// in flight.
	jobs := make([]*Job, 0, jobsN)
	for i := 0; i < jobsN; i++ {
		g := spinChain(t, fmt.Sprintf("stream-soak-%d", i), 25)
		job, err := env.Submit(context.Background(), g)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, job)
	}
	inj := chaos.NewInjector(env.TB, 11)
	go func() {
		time.Sleep(150 * time.Millisecond)
		_, _ = inj.Apply(chaos.Event{Action: chaos.Kill, Fraction: 0.25})
	}()

	// Publisher-side acceptance: the wave terminalizes on schedule even
	// with slow subscribers attached — Publish never blocked the board.
	drainCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		for _, j := range jobs {
			if j.State() != JobDone && j.State() != JobFailed && j.State() != JobCanceled {
				t.Errorf("job %s stuck in %s", j.ID, j.State())
			}
		}
		t.Fatalf("drain with %d subscribers attached: %v", subsN, err)
	}

	final = env.pipe.events.Cursor()
	close(stop)
	wg.Wait()

	total := int(final)
	if total == 0 {
		t.Fatal("no events were published during the wave")
	}
	evicted := 0
	for i, rep := range reports {
		if !rep.ordered {
			t.Errorf("subscriber %d saw out-of-order cursors", i)
		}
		if rep.evicted {
			evicted++
			continue
		}
		// Survivors drained every event published while they listened.
		if rep.events != total {
			t.Errorf("subscriber %d survived but saw %d of %d events", i, rep.events, total)
		}
	}
	if evicted == subsN {
		t.Errorf("all %d subscribers were evicted; the buffer spread should let large buffers survive", subsN)
	}
	t.Logf("published %d events; %d/%d subscribers evicted as slow consumers", total, evicted, subsN)
}
