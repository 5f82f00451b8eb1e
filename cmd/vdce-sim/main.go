// Command vdce-sim schedules a synthetic workload with a chosen policy
// and prints the allocation table, simulated statistics, and a Gantt
// chart of the resulting schedule — the fastest way to see the site
// scheduler's decisions.
//
//	vdce-sim -family layered -tasks 40 -ccr 2 -sites 3 -hosts 4
//	vdce-sim -family fft -tasks 60 -policy minmin -gantt-width 100
//
// With -chaos it additionally plays a fault-injection scenario against
// the testbed, drives the heartbeat failure detector to confirmation,
// reschedules the workload on the surviving hosts, and reports how the
// allocation recovered:
//
//	vdce-sim -family layered -tasks 24 -sites 2 -chaos kill-quarter
//	vdce-sim -chaos site-partition -sites 3
//	vdce-sim -chaos flapping-host -sites 2 -hosts 4
//	vdce-sim -chaos brownout -sites 2 -hosts 4
//
// Chaos runs also feed the detector each round's per-host outcomes and
// report which hosts it quarantined (breakers open) — flapping-host
// shows quarantine holding out a host that liveness alone keeps
// re-admitting, and the post-chaos reschedule places nothing on it.
//
// The server-restart scenario exercises the control plane instead of
// the hosts: it boots a durable environment (Config.StoreDir), runs a
// job workload through the submission pipeline, kills the control
// plane mid-workload (no graceful flush), restarts it on the same
// store, and reports how many queued jobs were re-admitted and
// in-flight jobs re-dispatched:
//
//	vdce-sim -chaos server-restart -sites 2 -hosts 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/chaos"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/experiments"
	"vdce/internal/obs"
	"vdce/internal/services"
	"vdce/internal/sim"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/trace"
	"vdce/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and executes the simulation, writing reports to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vdce-sim", flag.ContinueOnError)
	family := fs.String("family", "layered", "workload family: layered|forkjoin|gauss|fft|intree")
	tasks := fs.Int("tasks", 30, "task count (or LES order / C3I targets)")
	ccr := fs.Float64("ccr", 1, "communication-to-computation ratio")
	sites := fs.Int("sites", 2, "number of sites")
	hosts := fs.Int("hosts", 4, "hosts per site")
	k := fs.Int("k", -1, "nearest-neighbor sites (-1 = all)")
	var policies []string
	for _, p := range experiments.Policies {
		policies = append(policies, p.Name)
	}
	policy := fs.String("policy", "vdce", strings.Join(policies, "|"))
	seed := fs.Int64("seed", 1, "seed")
	ganttWidth := fs.Int("gantt-width", 80, "gantt chart width")
	chaosName := fs.String("chaos", "", "fault scenario: kill-quarter|rolling-restart|site-partition|flapping-host|brownout|server-restart")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *chaosName == "server-restart" {
		// A control-plane fault, not a host fault: it drives the full
		// environment (durable store included), so it bypasses the
		// schedule-and-simulate path below entirely.
		return runServerRestart(out, *sites, *hosts, *seed)
	}
	at := slices.Index(policies, *policy)
	if at < 0 {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	pol := experiments.Policies[at]

	tb, err := testbed.Build(testbed.Config{
		Sites: *sites, HostsPerGroup: *hosts, Seed: *seed, BaseLoadMax: 0.4,
	})
	if err != nil {
		return err
	}
	if err := tb.RefreshRepos(time.Unix(0, 0)); err != nil {
		return err
	}
	var locals []*core.LocalSite
	var hostNames [][]string
	for _, s := range tb.Sites {
		locals = append(locals, core.NewLocalSite(s.Repo))
		var names []string
		for _, h := range s.Hosts {
			names = append(names, h.Name)
		}
		hostNames = append(hostNames, names)
	}

	// Build the workload.
	var gen func(workload.Params) (*workload.Graph, error)
	for _, f := range workload.Families() {
		if f.Name == *family {
			gen = f.Gen
		}
	}
	if gen == nil {
		return fmt.Errorf("unknown family %q (library apps like LES live in examples/)", *family)
	}
	w, err := gen(workload.Params{Tasks: *tasks, CCR: *ccr, Seed: *seed})
	if err != nil {
		return err
	}
	for i, s := range tb.Sites {
		if err := w.Install(s.Repo, hostNames[i]); err != nil {
			return err
		}
	}
	stats, err := w.G.ComputeStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload %s: %s\n\n", w.G.Name, stats)

	// Schedule. The closure re-runs the SAME policy against the current
	// repository state, so the chaos path's post-failure reallocation
	// measures fault recovery rather than a policy switch.
	round := experiments.Round{Sites: locals, Net: tb.Net, K: *k, Seed: *seed}
	if round.K < 0 {
		round.K = *sites - 1
	}
	scheduleOnce := func() (*core.AllocationTable, error) { return pol.Schedule(round, w) }
	table, err := scheduleOnce()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, table)

	if *chaosName != "" {
		return runChaos(out, tb, table, *chaosName, *seed, scheduleOnce)
	}

	// Simulate and render.
	res, err := sim.Run(w.G, table, tb.Net)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res)
	fmt.Fprintln(out)
	fmt.Fprint(out, trace.Gantt(trace.FromSim(w.G, table, res), *ganttWidth))
	return nil
}

// restartGraph builds the i-th application of the server-restart
// workload: small Linear Equation Solver instances with the builders'
// machine-type preferences cleared (the fabricated testbed mixes types
// arbitrarily).
func restartGraph(i int, seed int64) (*afg.Graph, error) {
	g, err := tasklib.BuildLinearEquationSolver(8+4*(i%3), seed+int64(i))
	if err != nil {
		return nil, err
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
	g.Name = fmt.Sprintf("%s#%d", g.Name, i)
	return g, nil
}

// runServerRestart is the control-plane fault scenario: a durable
// environment runs a job workload, dies mid-workload without a
// graceful flush (Environment.Crash), and a second incarnation on the
// same store directory recovers — queued jobs re-admitted with their
// admission parameters intact, in-flight jobs re-dispatched through a
// fresh scheduling round — then drains the recovered workload to done.
func runServerRestart(out io.Writer, sites, hosts int, seed int64) error {
	dir, err := os.MkdirTemp("", "vdce-restart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := vdce.Config{
		Testbed: testbed.Config{Sites: sites, HostsPerGroup: hosts, Seed: seed, BaseLoadMax: 0.2},
		// One worker and one run slot serialize dispatch, so most of the
		// workload is still queued (and one job in flight) at the kill.
		Pipeline: vdce.PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
		StoreDir: dir,
	}
	env, err := vdce.New(cfg)
	if err != nil {
		return err
	}
	const jobs = 10
	ctx := context.Background()
	for i := 0; i < jobs; i++ {
		g, gerr := restartGraph(i, seed)
		if gerr != nil {
			env.Crash()
			return gerr
		}
		if _, serr := env.Submit(ctx, g, vdce.WithMaxHosts(sites-1)); serr != nil {
			env.Crash()
			return serr
		}
	}
	// Kill mid-workload: wait (briefly) until at least one job left the
	// queue, so the restart exercises in-flight re-adoption too.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c := env.Board.Counts()
		if c[services.JobStateScheduling]+c[services.JobStateRunning] > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	pre := env.Board.Counts()
	fmt.Fprintf(out, "server-restart: killing control plane with %d queued, %d in flight, %d done\n",
		pre[services.JobStateQueued],
		pre[services.JobStateScheduling]+pre[services.JobStateRunning],
		pre[services.JobStateDone])
	env.Crash()

	env2, err := vdce.New(cfg)
	if err != nil {
		return fmt.Errorf("restart on %s: %w", dir, err)
	}
	defer env2.Close()
	rep := env2.Recovery()
	fmt.Fprintf(out, "server-restart: recovered %d queued re-admitted, %d in-flight re-dispatched, %d terminal retained\n",
		rep.QueuedRecovered, rep.InFlightRedispatched, rep.TerminalRetained)

	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := env2.Drain(drainCtx); err != nil {
		return fmt.Errorf("post-restart drain: %w", err)
	}
	post := env2.Board.Counts()
	fmt.Fprintf(out, "server-restart: after drain %d done, %d failed, %d canceled\n",
		post[services.JobStateDone], post[services.JobStateFailed], post[services.JobStateCanceled])
	if got := rep.QueuedRecovered + rep.InFlightRedispatched + rep.TerminalRetained; got != jobs {
		return fmt.Errorf("recovery lost jobs: %d recovered of %d submitted", got, jobs)
	}
	if post[services.JobStateDone] != jobs {
		return fmt.Errorf("post-restart workload did not finish: %d/%d done", post[services.JobStateDone], jobs)
	}
	printMetricsSummary(out, env2.Obs)
	return nil
}

// printMetricsSummary renders the chaos report's closing table straight
// from the environment's metrics registry — the same series /metrics
// exposes, so the report can never disagree with the scrape.
func printMetricsSummary(out io.Writer, reg *obs.Registry) {
	fmt.Fprintln(out, "metrics summary:")
	for _, row := range []struct{ label, name string }{
		{"jobs admitted", "vdce_admission_accepted_total"},
		{"submissions shed", "vdce_admission_rejects_total"},
		{"jobs recovered", "vdce_recovery_jobs_total"},
		{"task retries", "vdce_exec_retries_total"},
		{"retry parks", "vdce_exec_retry_parks_total"},
		{"reschedules", "vdce_exec_reschedules_total"},
		{"host failures", "vdce_exec_host_failures_total"},
		{"breaker opens", "vdce_breaker_opens_total"},
		{"events published", "vdce_events_published_total"},
	} {
		fmt.Fprintf(out, "  %-20s %g\n", row.label, reg.Total(row.name))
	}
}

// runChaos plays the named fault scenario over the already-scheduled
// testbed on a synthetic clock, drives the failure detector through
// suspicion and confirmation after every burst of same-offset events,
// reschedules the workload on the survivors with the SAME policy that
// produced the original table, and prints a recovery report comparing
// the two allocations.
func runChaos(out io.Writer, tb *testbed.Testbed, before *core.AllocationTable, name string, seed int64, reschedule func() (*core.AllocationTable, error)) error {
	sc, err := chaos.Named(name, tb, 4*time.Second)
	if err != nil {
		return err
	}
	det := detect.New(detect.Config{SuspicionTimeout: 10 * time.Millisecond, ConfirmQuorum: 2})
	for _, s := range tb.Sites {
		det.AddSite(s.Name, s.Repo.Resources)
	}
	inj := chaos.NewInjector(tb, seed)
	reg := obs.NewRegistry()
	opens := reg.Counter("vdce_breaker_opens_total",
		"Circuit-breaker transitions into the open state, per host.", "host")
	det.Subscribe(func(tr detect.Transition) {
		if tr.To == detect.Open {
			opens.With(tr.Host).Inc()
		}
	})

	fmt.Fprintf(out, "chaos scenario %q (seed %d): %d events\n", sc.Name, seed, len(sc.Events))
	// Synthetic clock: heartbeats land at now, then the clock jumps past
	// the suspicion timeout before each detector round, so silence is
	// judged instantly instead of in wall time. Each round also records
	// one outcome per host — a reachable host a success, a dark one a
	// failure — so a host that flaps accumulates a mixed window whose
	// failure rate quarantines it even though liveness keeps flipping it
	// back to healthy.
	now := time.Unix(0, 0)
	detection := func() error {
		for round := 0; round < 3; round++ {
			now = now.Add(25 * time.Millisecond)
			for _, h := range tb.AllHosts() {
				if h.Reachable() {
					det.Observe(h.Name, now)
				}
				det.RecordOutcome(h.Name, h.Reachable())
			}
			trs, err := det.Tick(now)
			if err != nil {
				return err
			}
			for _, tr := range trs {
				fmt.Fprintf(out, "  detector: %s %s -> %s\n", tr.Host, tr.From, tr.To)
			}
		}
		return nil
	}
	// Apply bursts of same-offset events, detecting after each burst.
	for i := 0; i < len(sc.Events); {
		j := i
		for j < len(sc.Events) && sc.Events[j].At == sc.Events[i].At {
			a, err := inj.Apply(sc.Events[j])
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  inject: %s\n", a)
			j++
		}
		if err := detection(); err != nil {
			return err
		}
		i = j
	}

	counts := det.Counts()
	dead := counts[detect.Dead]
	sus, conf, rec, rounds := det.Stats()
	fmt.Fprintf(out, "detector stats: %d suspicions, %d confirmations, %d recoveries over %d rounds\n",
		sus, conf, rec, rounds)
	names := tb.HostNames()
	fmt.Fprintf(out, "breakers: %d/%d open\n", counts[detect.Open], len(names))
	slices.Sort(names)
	for _, name := range names {
		hs, _ := det.Health(name)
		if n := opens.Value(name); hs.Phase != detect.Closed || n > 0 {
			fmt.Fprintf(out, "  breaker: %-28s %-9s rate=%.2f samples=%d opens=%g\n",
				name, hs.Phase, hs.FailureRate, hs.Samples, n)
		}
	}

	// Reschedule on the survivors (same policy) and diff the allocations.
	after, err := reschedule()
	if err != nil {
		return fmt.Errorf("post-chaos reschedule: %w (%d hosts confirmed dead)", err, dead)
	}
	moved := 0
	for _, e := range after.Entries {
		if p := before.Placement(e.Task); p == nil || p.Hosts[0] != e.Hosts[0] {
			moved++
		}
	}
	fmt.Fprintln(out, after)
	fmt.Fprintf(out, "recovery: %d/%d placements moved, %d hosts confirmed dead, %d recovered\n",
		moved, len(after.Entries), dead, rec)
	// Rescheduled placements must avoid every confirmed-dead host.
	for _, e := range after.Entries {
		for _, h := range e.Hosts {
			if st, ok := det.State(h); ok && st == detect.Dead {
				return fmt.Errorf("task %d rescheduled onto confirmed-dead host %s", e.Task, h)
			}
		}
	}
	printMetricsSummary(out, reg)
	return nil
}
