package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one traced interval. Spans of one job share its index; a
// root has parent 0. Times are microseconds since the window's first
// due time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Job     int    `json:"job"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer holds a traced window's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

// add records a span clamped into its parent — the harness's and the
// program's clocks are read on different sides of a wall-clock/
// monotonic boundary, and a child must never poke out of its parent —
// and returns its ID. A zero endpoint (phase never reached) records
// nothing.
func (t *tracer) add(parent int, name string, job int, start, end time.Time) int {
	if start.IsZero() || end.IsZero() {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job,
		StartUS: start.Sub(t.origin).Microseconds(), EndUS: end.Sub(t.origin).Microseconds()}
	if parent > 0 {
		p := t.spans[parent-1]
		s.StartUS = min(max(s.StartUS, p.StartUS), p.EndUS)
		s.EndUS = min(max(s.EndUS, s.StartUS), p.EndUS)
	} else if s.EndUS < s.StartUS {
		s.EndUS = s.StartUS
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// Child span names of client.job, in the order the budget attributes
// overlapping time: earlier rows keep what later rows overlap.
var budgetRows = []string{
	"client.late", "vdce.submit_call", "editor.submit_http",
	"vdce.queue_wait", "vdce.dispatch_wait", "vdce.run",
	"vdce.observe_lag", "jobsapi.sse_lag",
}

// traceJobs turns a traced window's records into spans: one client.job
// root per terminal job, a child per pipeline phase from the public
// JobTimings, and under vdce.run one exec.task per public TaskRun.
func traceJobs(w *window, server bool) *tracer {
	t := &tracer{origin: w.recs[0].due}
	for i := range w.recs {
		r := &w.recs[i]
		if !r.terminal || r.t.FinishedAt.IsZero() {
			continue
		}
		end := r.t.FinishedAt
		if !r.observed.IsZero() {
			end = r.observed
		}
		root := t.add(0, "client.job", i, r.due, end)
		t.add(root, "client.late", i, r.due, r.callStart)
		call, lag := "vdce.submit_call", "vdce.observe_lag"
		if server {
			call, lag = "editor.submit_http", "jobsapi.sse_lag"
		}
		c := t.add(root, call, i, r.callStart, r.callEnd)
		t.add(c, "vdce.submit_wait", i, r.t.SubmittedAt, r.t.AdmittedAt)
		t.add(root, "vdce.queue_wait", i, r.t.AdmittedAt, r.t.ScheduledAt)
		t.add(root, "vdce.dispatch_wait", i, r.t.ScheduledAt, r.t.DispatchedAt)
		run := t.add(root, "vdce.run", i, r.t.RunningAt, r.t.FinishedAt)
		for _, tr := range r.runs {
			t.add(run, "exec.task", i, tr.Start, tr.End)
		}
		t.add(root, lag, i, r.t.FinishedAt, r.observed)
	}
	return t
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// budget is where a workload's mean turnaround goes: the exclusive mean
// of each client.job child, their sum, and what no child covers.
type budget struct {
	rows         map[string]float64 // ms per job
	turnaroundMS float64
	unattributed float64 // share of mean turnaround no child covers
	// execTaskMS is the mean time exec.task spans cover inside vdce.run;
	// runSelfMS is vdce.run's self time: channel set-up, transfer and
	// controller work around the tasks.
	execTaskMS, runSelfMS float64
	jobs                  int
}

// computeBudget walks the span forest. Siblings may overlap (the worker
// pops a job while the submit call is still returning); overlapping time
// is attributed once, to the earlier row.
func computeBudget(spans []span) budget {
	children := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	b := budget{rows: make(map[string]float64), jobs: len(roots)}
	if b.jobs == 0 {
		return b
	}
	var total, covered, taskCover, runTotal float64
	for _, root := range roots {
		total += float64(root.EndUS - root.StartUS)
		kids := children[root.ID]
		slices.SortStableFunc(kids, func(a, c span) int {
			return slices.Index(budgetRows, a.Name) - slices.Index(budgetRows, c.Name)
		})
		cur := root.StartUS
		for _, k := range kids {
			start := max(k.StartUS, cur)
			if k.EndUS > start {
				b.rows[k.Name] += float64(k.EndUS - start)
				covered += float64(k.EndUS - start)
				cur = k.EndUS
			}
			if k.Name == "vdce.run" {
				runTotal += float64(k.EndUS - k.StartUS)
				taskCover += float64(unionUS(children[k.ID]))
			}
		}
	}
	n := float64(b.jobs) * 1e3 // µs sums to ms means
	for name := range b.rows {
		b.rows[name] /= n
	}
	b.turnaroundMS = total / n
	b.unattributed = 1 - covered/total
	b.execTaskMS = taskCover / n
	b.runSelfMS = (runTotal - taskCover) / n
	return b
}

// unionUS is the length of the union of the spans' intervals.
func unionUS(spans []span) int64 {
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(a, b span) int { return int(a.StartUS - b.StartUS) })
	var sum, end int64 = 0, math.MinInt64
	for _, s := range sorted {
		if s.StartUS > end {
			sum += s.EndUS - s.StartUS
			end = s.EndUS
		} else if s.EndUS > end {
			sum += s.EndUS - end
			end = s.EndUS
		}
	}
	return sum
}

func (b budget) print(name string) {
	fmt.Fprintf(os.Stderr, "--- budget %s: mean of each client.job child over %d jobs (ms, overlap counted once)\n", name, b.jobs)
	var sum float64
	for _, row := range budgetRows {
		if v, ok := b.rows[row]; ok {
			fmt.Fprintf(os.Stderr, "  %-22s %9.4f  %5.1f%%\n", row, v, 100*v/b.turnaroundMS)
			sum += v
			switch {
			case row != "vdce.run":
			case b.execTaskMS == 0:
				fmt.Fprintf(os.Stderr, "    dark: the public trace shows no task inside running\n")
			default:
				fmt.Fprintf(os.Stderr, "    %-20s %9.4f\n", "exec.task (union)", b.execTaskMS)
				fmt.Fprintf(os.Stderr, "    %-20s %9.4f\n", "self (exec overhead)", b.runSelfMS)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "  %-22s %9.4f\n", "sum of children", sum)
	fmt.Fprintf(os.Stderr, "  %-22s %9.4f\n", "mean turnaround", b.turnaroundMS)
	fmt.Fprintf(os.Stderr, "  %-22s %9.4f  %5.1f%%\n", "unattributed", b.turnaroundMS-sum, 100*b.unattributed)
}

// inflightPeak is the most jobs the client had outstanding at once.
func inflightPeak(w *window, server bool) int {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for i := range w.recs {
		r := &w.recs[i]
		if r.terminal && !r.end(server).IsZero() {
			edges = append(edges, edge{r.callStart, 1}, edge{r.end(server), -1})
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return a.delta - b.delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// capacityPacedSeconds sizes the closed-loop capacity stretch: it runs
// as many jobs as the workload offers in this many paced seconds (fewer
// in a shorter run).
const capacityPacedSeconds = 4

// capacityOutstanding is the closed loop's client count.
const capacityOutstanding = 8

// runTraced is the traced run: an untraced and a traced window of equal
// length on the same deployment (their p50s give the tracing overhead),
// a closed-loop capacity stretch, the span file, the isolated probes and
// the budget table. End-to-end numbers never come from here.
func runTraced(ctx context.Context, cfg runConfig, d driver) (*result, error) {
	sp := cfg.spec
	picks := newPicker(cfg.seed, len(d.graphs()), sp.owners)
	if _, err := warmUp(ctx, cfg, d, picks); err != nil {
		return nil, err
	}
	part := sp.jobs(cfg.seconds * 0.4)
	plain, err := runWindow(ctx, d, sp, picks, part, windowMode{})
	if err != nil {
		return nil, err
	}
	traced, err := runWindow(ctx, d, sp, picks, part, windowMode{traced: true})
	if err != nil {
		return nil, err
	}
	closed, err := runWindow(ctx, d, sp, picks, sp.jobs(min(capacityPacedSeconds, cfg.seconds)), windowMode{outstanding: capacityOutstanding})
	if err != nil {
		return nil, err
	}
	sPlain, sTraced, sClosed := cfg.summarize(plain), cfg.summarize(traced), cfg.summarize(closed)
	if sTraced.ok == 0 || sPlain.ok == 0 {
		return nil, errors.New("no job succeeded: " + sTraced.firstFail + sPlain.firstFail)
	}

	tr := traceJobs(traced, sp.server)
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+sp.name+".json")); err != nil {
		return nil, err
	}
	b := computeBudget(tr.spans)
	b.print(sp.name)

	m := windowLayerMetrics(traced, sTraced, sp.server, d)
	// What a client sees, from the untraced window: the timings this
	// shared machine cannot repeat within a regression bound, so they are
	// recorded here rather than gated end to end.
	m["client.setup_ms"] = metric{d.setupSeconds() * 1e3, "ms"}
	m["client.turnaround_p50_ms"] = metric{median(sPlain.sliceP50), "ms"}
	m["client.turnaround_p90_ms"] = metric{median(sPlain.sliceP90), "ms"}
	m["client.cpu_ms_per_job"] = metric{median(sPlain.sliceCPU), "ms"}
	m["client.list_scan_ms"] = metric{median(sPlain.sliceScan), "ms"}
	m["vdce.capacity_jobs_per_s"] = metric{sClosed.jobsPerS, "1/s"}
	m["exec.task_busy_ms"] = metric{taskBusyMS(traced), "ms"}
	// Without public task spans (the server's HTTP surface) running cannot
	// be split into compute and exec overhead; it is reported instead as
	// the share of turnaround the public trace leaves dark.
	var overhead, cover, dark float64
	if b.execTaskMS > 0 {
		overhead, cover = b.runSelfMS, b.execTaskMS
	} else {
		dark = b.rows["vdce.run"]
	}
	m["exec.overhead_ms"] = metric{overhead, "ms"}
	m["exec.overhead_frac"] = metric{overhead / b.turnaroundMS, "ratio"}
	m["exec.task_cover_frac"] = metric{cover / b.turnaroundMS, "ratio"}
	m["budget.dark_frac"] = metric{dark / b.turnaroundMS, "ratio"}
	m["budget.unattributed_frac"] = metric{b.unattributed, "ratio"}
	m["trace.overhead_frac"] = metric{percentile(sTraced.turnaround, 0.5)/percentile(sPlain.turnaround, 0.5) - 1, "ratio"}
	if err := runProbes(ctx, cfg, d, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	printDetail(fmt.Sprintf("%s seed=%d seconds=%g (traced)", sp.name, cfg.seed, cfg.seconds), map[string]any{
		"traced_jobs":            sTraced.attempted,
		"traced_p50_ms":          percentile(sTraced.turnaround, 0.5),
		"untraced_p50_ms":        percentile(sPlain.turnaround, 0.5),
		"capacity_jobs":          sClosed.attempted,
		"generator_max_late_ms":  traced.maxLate.Seconds() * 1e3,
		"inflight_at_window_end": sTraced.inflight,
		"first_failure":          sTraced.firstFail,
		"spans":                  len(tr.spans),
		"loadavg":                traced.loadavg,
		"cpu_kernel_before_ms":   traced.kernelBefore,
		"cpu_kernel_after_ms":    traced.kernelAfter,
	})
	return &result{
		Correct:   sTraced.ok == sTraced.attempted,
		Attempted: sTraced.attempted,
		Failed:    sTraced.attempted - sTraced.ok,
		Metrics:   m,
	}, nil
}

// taskBusyMS is the mean per job of the summed TaskRun durations: task
// compute plus whatever the controller holds the host lock for.
func taskBusyMS(w *window) float64 {
	var sum time.Duration
	n := 0
	for i := range w.recs {
		if r := &w.recs[i]; r.terminal {
			n++
			for _, tr := range r.runs {
				sum += tr.End.Sub(tr.Start)
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}

// windowLayerMetrics reads the per-layer numbers a traced window shows
// directly: means of the public phase durations, the client's own
// clocks, and the program's public counters.
func windowLayerMetrics(w *window, s summary, server bool, d driver) map[string]metric {
	var call, submitWait, queueWait, dispatchWait, run, lag, edge, resched []float64
	graphs := d.graphs()
	for i := range w.recs {
		r := &w.recs[i]
		if !r.terminal || r.t.FinishedAt.IsZero() {
			continue
		}
		call = append(call, r.callEnd.Sub(r.callStart).Seconds())
		submitWait = append(submitWait, r.t.SubmitWaitSeconds)
		queueWait = append(queueWait, r.t.QueueWaitSeconds)
		dispatchWait = append(dispatchWait, r.t.DispatchWaitSeconds)
		run = append(run, r.t.RunSeconds)
		if !r.observed.IsZero() {
			lag = append(lag, max(0, r.observed.Sub(r.t.FinishedAt).Seconds()))
		}
		edge = append(edge, float64(edgeBytes(graphs[r.pick.graph])))
		resched = append(resched, float64(r.reschedules))
	}
	settled := float64(s.attempted - s.inflight)
	m := map[string]metric{
		"vdce.submit_call_us":       {0, "us"},
		"editor.submit_http_ms":     {0, "ms"},
		"vdce.submit_wait_ms":       {mean(submitWait) * 1e3, "ms"},
		"vdce.queue_wait_ms":        {mean(queueWait) * 1e3, "ms"},
		"vdce.dispatch_wait_ms":     {mean(dispatchWait) * 1e3, "ms"},
		"vdce.run_ms":               {mean(run) * 1e3, "ms"},
		"vdce.observe_lag_ms":       {0, "ms"},
		"jobsapi.sse_lag_ms":        {0, "ms"},
		"vdce.inflight_peak":        {float64(inflightPeak(w, server)), "count"},
		"exec.edge_bytes_per_job":   {mean(edge), "B"},
		"exec.reschedules_per_job":  {mean(resched), "count"},
		"exec.peak_concurrency":     {w.cntAfter.execPeak, "count"},
		"core.rank_cache_hit_ratio": {w.cntAfter.rankCacheHits, "ratio"},
		"jobsapi.events_per_job":    {(w.cntAfter.events - w.cntBefore.events) / settled, "count"},
		"obs.completed_count_diff":  {math.Abs((w.cntAfter.completed - w.cntBefore.completed) - settled), "count"},
		"client.turnaround_mean_ms": {mean(s.turnaround), "ms"},
	}
	if server {
		m["editor.submit_http_ms"] = metric{mean(call) * 1e3, "ms"}
		m["jobsapi.sse_lag_ms"] = metric{mean(lag) * 1e3, "ms"}
	} else {
		m["vdce.submit_call_us"] = metric{mean(call) * 1e6, "us"}
		m["vdce.observe_lag_ms"] = metric{mean(lag) * 1e3, "ms"}
	}
	return m
}
