// One benchmark per experiment in the index of
// internal/experiments/runner.go (the paper's figures and claims; measured
// rows are kept in EXPERIMENTS.md), plus micro-benchmarks used as
// ablations for the design choices the scheduler relies on. Regenerate
// EXPERIMENTS.md rows with:
//
//	go test -bench=. -benchmem
//	go run ./cmd/vdce-bench            # full-size sweeps with tables
package vdce

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/experiments"
	"vdce/internal/netmodel"
	"vdce/internal/predict"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/sim"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/workload"
)

// benchExperiment runs one E-suite entry in quick mode per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_LESBuild(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2_SiteScheduler(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3_HostSelection(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4_Locality(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5_Monitoring(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6_FailureDetect(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7_Reschedule(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8_Prediction(b *testing.B)    { benchExperiment(b, "E8") }

// --- micro-benchmarks / ablations ---

// BenchmarkLevelComputation isolates the priority phase of the site
// scheduler (the level computation of §3) on a 1000-task layered DAG.
func BenchmarkLevelComputation(b *testing.B) {
	w, err := workload.Layered(workload.Params{Tasks: 1000, CCR: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cost := w.CostFunc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.G.Levels(cost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict isolates one Predict(task, R) evaluation — the inner
// loop of the host selection algorithm.
func BenchmarkPredict(b *testing.B) {
	p := predict.Default()
	task := repository.TaskParams{
		Name: "t", ComputationOps: 1e9, CommunicationBytes: 1 << 20,
		RequiredMemBytes: 1 << 26, Parallelizable: true, SerialFraction: 0.1,
	}
	host := repository.HostView{
		HostName: "h", SpeedFactor: 2, CPULoad: 0.3,
		TotalMem: 1 << 30, AvailMem: 1 << 29, Status: repository.HostUp,
	}
	measured := 3 * time.Second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(task, host, 4, &measured); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate isolates the schedule evaluator on a 300-task graph.
func BenchmarkSimulate(b *testing.B) {
	w, err := workload.Layered(workload.Params{Tasks: 300, CCR: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	net, err := netmodel.New([]string{"s0"})
	if err != nil {
		b.Fatal(err)
	}
	// A fixed synthetic placement across 8 hosts.
	table := &core.AllocationTable{App: "bench"}
	order, err := w.G.TopoSort()
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range order {
		table.Entries = append(table.Entries, core.Placement{
			Task: id, TaskName: w.G.Task(id).Name, Site: "s0",
			Hosts:     []string{fmt.Sprintf("h%d", int(id)%8)},
			Predicted: w.Costs[id],
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.G, table, net); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLevelPriorityAblation compares the paper's level priority
// against FIFO ordering on the same cluster — the list-scheduling
// priority the paper's Fig. 3 algorithm relies on.
func BenchmarkLevelPriorityAblation(b *testing.B) {
	for _, prio := range []struct {
		name string
		mode core.PriorityMode
	}{{"level", core.LevelPriority}, {"fifo", core.FIFOPriority}} {
		b.Run(prio.name, func(b *testing.B) {
			// Direct measurement: schedule+simulate one 200-task graph.
			w, err := workload.Layered(workload.Params{Tasks: 200, CCR: 5, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			env := newBenchCluster(b, 4, 8, 3)
			if err := env.install(b, w); err != nil {
				b.Fatal(err)
			}
			var makespan time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched := core.NewScheduler(env.sites[0], env.remotes(), env.net, 3)
				sched.Priority = prio.mode
				table, err := sched.Schedule(w.G, w.CostFunc())
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(w.G, table, env.net)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(float64(makespan)/1e6, "makespan-ms")
		})
	}
}

// benchCluster is a minimal in-package analogue of the experiments
// fixture for ablation benches.
type benchCluster struct {
	sites []*core.LocalSite
	net   *netmodel.Network
	repos []*repository.Repository
	hosts [][]string
}

func newBenchCluster(b testing.TB, nSites, hostsPer int, seed int64) *benchCluster {
	b.Helper()
	env, err := New(Config{Testbed: testbed.Config{
		Sites: nSites, HostsPerGroup: hostsPer, Seed: seed,
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	c := &benchCluster{net: env.Net, sites: env.Sites}
	for _, s := range env.TB.Sites {
		c.repos = append(c.repos, s.Repo)
		var names []string
		for _, h := range s.Hosts {
			names = append(names, h.Name)
		}
		c.hosts = append(c.hosts, names)
	}
	return c
}

func (c *benchCluster) install(b testing.TB, w *workload.Graph) error {
	b.Helper()
	for i, repo := range c.repos {
		if err := w.Install(repo, c.hosts[i]); err != nil {
			return err
		}
	}
	return nil
}

func (c *benchCluster) remotes() []core.SiteService {
	var out []core.SiteService
	for _, s := range c.sites[1:] {
		out = append(out, s)
	}
	return out
}

// BenchmarkKNearestAblation sweeps the paper's k parameter on a ring —
// the locality design choice.
func BenchmarkKNearestAblation(b *testing.B) {
	for _, k := range []int{0, 1, 3, 7} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			w, err := workload.Layered(workload.Params{Tasks: 100, CCR: 5, Seed: 4})
			if err != nil {
				b.Fatal(err)
			}
			env := newBenchCluster(b, 8, 4, 4)
			env.net.Ring(10*time.Millisecond, 2e6)
			if err := env.install(b, w); err != nil {
				b.Fatal(err)
			}
			var makespan time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched := core.NewScheduler(env.sites[0], env.remotes(), env.net, k)
				table, err := sched.Schedule(w.G, w.CostFunc())
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(w.G, table, env.net)
				if err != nil {
					b.Fatal(err)
				}
				makespan = res.Makespan
			}
			b.ReportMetric(float64(makespan)/1e6, "makespan-ms")
		})
	}
}

// BenchmarkBlendAblation sweeps the prediction model's measured-history
// weight — the calibration design choice E8 exercises. It reports the
// absolute prediction error against a synthetic ground truth where the
// catalog over-estimates host speed by 2x.
func BenchmarkBlendAblation(b *testing.B) {
	for _, blend := range []float64{0, 0.3, 0.6, 0.9} {
		b.Run(fmt.Sprintf("blend=%.1f", blend), func(b *testing.B) {
			p := predict.Default()
			p.MeasuredBlend = blend
			task := repository.TaskParams{Name: "t", ComputationOps: 1e8}
			host := repository.HostView{
				HostName: "h", SpeedFactor: 2, // catalog claims 2x
				TotalMem: 1 << 30, AvailMem: 1 << 30, Status: repository.HostUp,
			}
			// Ground truth: the host actually behaves like speed 1.
			truth := time.Second
			measured := truth // smoothed history has converged to reality
			var errNs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := p.Predict(task, host, 1, &measured)
				if err != nil {
					b.Fatal(err)
				}
				d := float64(got - truth)
				if d < 0 {
					d = -d
				}
				errNs = d
			}
			b.ReportMetric(errNs/1e6, "abs-err-ms")
		})
	}
}

// TestSchedulerRoundAllocationCeiling is the allocation guardrail for
// the scheduling hot path: one scheduler round on the benchmark
// workload must stay under a fixed allocation budget. Epoch-snapshot
// reads plus the generation-validated ranked-host cache put a
// steady-state round at ~5.4k allocs (200 tasks on 4 sites; the
// pre-cache baseline was ~21k); the ceiling keeps ~2x headroom over
// that so it only trips on a real regression.
func TestSchedulerRoundAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := workload.Layered(workload.Params{Tasks: 200, CCR: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	env := newBenchCluster(t, 4, 8, 6)
	if err := env.install(t, w); err != nil {
		t.Fatal(err)
	}
	cost := w.CostFunc()
	const ceiling = 12_000
	avg := testing.AllocsPerRun(5, func() {
		sched := core.NewScheduler(env.sites[0], env.remotes(), env.net, 3)
		if _, err := sched.Schedule(w.G, cost); err != nil {
			t.Fatal(err)
		}
	})
	if avg > ceiling {
		t.Fatalf("scheduler round allocates %.0f allocs/run, ceiling %d — hot path regressed", avg, ceiling)
	}
}

// BenchmarkConcurrentSubmit measures aggregate throughput of the
// submission pipeline with the batch in flight at once against one job
// at a time on the same workload: a batch of 8 small C3I applications per iteration. The
// pipeline variant additionally reports the engine's peak application
// concurrency, demonstrating >1 application in flight.
func BenchmarkConcurrentSubmit(b *testing.B) {
	const batch = 8
	buildBatch := func(b *testing.B) []*afg.Graph {
		b.Helper()
		graphs := make([]*afg.Graph, batch)
		for i := range graphs {
			g, err := tasklibC3I(6+i%3, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			graphs[i] = g
		}
		return graphs
	}
	newSubmitEnv := func(b *testing.B) *Environment {
		b.Helper()
		env, err := New(Config{
			Testbed: testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: 41, BaseLoadMax: 0.2},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(env.Close)
		return env
	}

	b.Run("serial", func(b *testing.B) {
		env := newSubmitEnv(b)
		graphs := buildBatch(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range graphs {
				if _, err := submitWait(ctx, env, g, 2); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "apps/sec")
	})

	b.Run("pipeline", func(b *testing.B) {
		env := newSubmitEnv(b)
		graphs := buildBatch(b)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			jobs := make([]*Job, batch)
			for j, g := range graphs {
				job, err := env.Submit(ctx, g, WithMaxHosts(2))
				if err != nil {
					b.Fatal(err)
				}
				jobs[j] = job
			}
			for _, job := range jobs {
				if err := job.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "apps/sec")
		b.ReportMetric(float64(env.Engine.PeakConcurrency()), "peak-apps")
	})
}

// tasklibC3I builds a C3I pipeline with machine-type preferences
// cleared (clearMachineTypes), so any fabricated testbed host is
// eligible.
func tasklibC3I(targets int, seed int64) (*afg.Graph, error) {
	g, err := tasklib.BuildC3IPipeline(targets, seed)
	if err != nil {
		return nil, err
	}
	clearMachineTypes(g)
	return g, nil
}

// BenchmarkPriorityAdmission compares the priority admission queue (the
// aging heap behind Submit) against the FIFO channel it replaced, on the
// enqueue/dequeue hot path: one iteration admits and drains a batch of
// 1024 jobs with rotating priorities. The heap buys priority ordering
// and starvation protection for a modest constant over the channel.
func BenchmarkPriorityAdmission(b *testing.B) {
	const batch = 1024
	mkJobs := func() []*jobRecord {
		jobs := make([]*jobRecord, batch)
		base := time.Now()
		for i := range jobs {
			jobs[i] = &jobRecord{
				ID:       fmt.Sprintf("job-%d", i),
				priority: i % 7,
				timings:  services.JobTimings{SubmittedAt: base.Add(time.Duration(i) * time.Microsecond)},
			}
		}
		return jobs
	}

	b.Run("fifo-channel", func(b *testing.B) {
		jobs := mkJobs()
		q := make(chan *jobRecord, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				q <- j
			}
			for range jobs {
				<-q
			}
		}
	})

	b.Run("priority-heap", func(b *testing.B) {
		jobs := mkJobs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := newAdmitQueue(30*time.Second, QuotaConfig{})
			for _, j := range jobs {
				q.push(j)
			}
			for q.pop() != nil {
			}
		}
	})
}

// BenchmarkFairShareAdmission measures the weighted-fair admission
// queue on a mixed-owner workload: the same 1024-job batch as
// BenchmarkPriorityAdmission, but spread across 8 owners with rotating
// priorities and weights, so every pop exercises the cross-owner
// virtual-time arbitration on top of the per-owner heaps. Compare with
// BenchmarkPriorityAdmission/priority-heap (single-owner fast path) —
// the fair-share layer must stay within 2x of its alloc profile.
func BenchmarkFairShareAdmission(b *testing.B) {
	const batch = 1024
	const owners = 8
	mkJobs := func() []*jobRecord {
		jobs := make([]*jobRecord, batch)
		base := time.Now()
		for i := range jobs {
			jobs[i] = &jobRecord{
				ID:          fmt.Sprintf("job-%d", i),
				Owner:       fmt.Sprintf("owner-%d", i%owners),
				priority:    i % 7,
				shareWeight: 1 + i%4,
				timings:     services.JobTimings{SubmittedAt: base.Add(time.Duration(i) * time.Microsecond)},
			}
		}
		return jobs
	}
	jobs := mkJobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := newAdmitQueue(30*time.Second, QuotaConfig{})
		for _, j := range jobs {
			q.push(j)
		}
		for q.pop() != nil {
		}
	}
}

// TestAdmitQueueOrdering pins the admission comparator: higher priority
// first, FIFO within a priority level, and aging — one extra AgingStep
// of waiting outranks one level of priority.
func TestAdmitQueueOrdering(t *testing.T) {
	const step = time.Second
	q := newAdmitQueue(step, QuotaConfig{})
	t0 := time.Unix(1000, 0)
	mk := func(id string, prio int, at time.Time) *jobRecord {
		return &jobRecord{ID: id, priority: prio, timings: services.JobTimings{SubmittedAt: at}}
	}
	// old-low waited 3 steps longer than new-mid (priority +2): aging wins.
	oldLow := mk("old-low", 0, t0)
	q.push(mk("new-high", 9, t0.Add(3*step)))
	q.push(oldLow)
	q.push(mk("new-mid", 2, t0.Add(3*step)))
	q.push(mk("fifo-a", 2, t0.Add(3*step)))
	want := []string{"new-high", "old-low", "new-mid", "fifo-a"}
	if got, _ := q.position(oldLow); got != 2 {
		t.Fatalf("position(old-low) = %d, want 2", got)
	}
	for _, id := range want {
		j := q.pop()
		if j == nil || j.ID != id {
			t.Fatalf("pop = %v, want %s", j, id)
		}
	}
	if q.pop() != nil {
		t.Fatal("queue not drained")
	}
	// remove deletes a queued record, once.
	a := mk("a", 1, t0)
	q.push(a)
	q.push(mk("b", 1, t0.Add(step)))
	if !q.remove(a) || q.remove(a) {
		t.Fatal("remove misbehaved")
	}
	if j := q.pop(); j == nil || j.ID != "b" {
		t.Fatalf("pop after remove = %v, want b", j)
	}
	// Overflow guard: an absurd caller-supplied priority saturates
	// instead of wrapping negative; saturated jobs still rank first,
	// ordered among themselves by enqueue time.
	q.push(mk("normal", 5, t0))
	q.push(mk("huge-1", int(^uint(0)>>1), t0.Add(step)))
	q.push(mk("huge-2", int(^uint(0)>>1), t0))
	for _, id := range []string{"huge-2", "huge-1", "normal"} {
		j := q.pop()
		if j == nil || j.ID != id {
			t.Fatalf("overflow pop = %v, want %s", j, id)
		}
	}
}

// BenchmarkRepoSnapshotContention measures the lock-free scheduling
// read path under pressure: parallel readers sweep a site snapshot
// (up-host views + measured times) while a background writer publishes
// monitor updates at a realistic cadence. Before the epoch-snapshot
// rework this path serialized every reader behind the repository
// RWMutex and deep-copied each host record per sweep.
func BenchmarkRepoSnapshotContention(b *testing.B) {
	const hosts = 32
	repo := repository.New("s1")
	for i := 0; i < hosts; i++ {
		if err := repo.Resources.AddHost(repository.ResourceInfo{
			HostName: fmt.Sprintf("h%d", i), Site: "s1", Group: "g0",
			TotalMem: 1 << 30, SpeedFactor: float64(i%4 + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := repo.TaskPerf.RegisterTask(repository.TaskParams{Name: "t", ComputationOps: 1e8}); err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := fmt.Sprintf("h%d", i%hosts)
			_ = repo.Resources.UpdateWorkload(h, repository.WorkloadSample{
				CPULoad: float64(i%10) / 10, AvailMemBytes: 1 << 29, Time: time.Unix(int64(i), 0),
			})
			i++
			time.Sleep(50 * time.Microsecond) // monitor cadence, not a tight loop
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		for pb.Next() {
			snap := repo.Snapshot()
			for _, v := range snap.UpHosts() {
				if d, ok := snap.Measurements("t").On(v.HostName); ok {
					sink += d.Seconds()
				}
				sink += v.CPULoad
			}
		}
		_ = sink
	})
	b.StopTimer()
	close(stop)
	writerDone.Wait()
}
