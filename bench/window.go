package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	"vdce/internal/afg"
	"vdce/internal/exec"
	"vdce/internal/linalg"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

const (
	// warmupSeconds of the workload's own paced traffic (less in a run
	// shorter than that) precede the first measured window and are the
	// fixed part of setup_s.
	warmupSeconds = 4
	// defaultRetained mirrors PipelineConfig.MaxRetainedJobs' default:
	// how many jobs the warm-up pushes through so that the job board and
	// the heap behind it are at their steady size before anything is
	// measured.
	defaultRetained = 1024
	// fillOutstanding is the warm-up fill's closed-loop client count.
	fillOutstanding = 8
	// sliceSeconds is the length of the slices a window is cut into. A
	// timing metric is the median over slices of each slice's own
	// statistic, so a stretch in which the machine was taken away moves a
	// few slices, not the result, while anything the program does to more
	// than half of the window still shows.
	sliceSeconds = 3
	// okWithin is how long after its due time a job may finish and
	// still count as ok.
	defaultOKWithin = 2 * time.Second
	// drainAfter bounds the wait for stragglers after the last due time;
	// jobs still in flight then count as failed.
	drainAfter = 10 * time.Second
)

// driver is one deployment under test: the in-process Environment or
// the spawned server.
type driver interface {
	// setupSeconds is the median set-up time measured at construction.
	setupSeconds() float64
	// graphs are the workload's distinct applications, indexed by
	// pick.graph.
	graphs() []*afg.Graph
	// begin starts the collector for a window; ctx carries the window's
	// drain deadline. In a closed loop the collector returns one token
	// to mode.tokens per job it settles.
	begin(ctx context.Context, mode windowMode)
	// submit performs one submission, filling rec's call times, and
	// reports whether it settled the record itself (the submission
	// failed, or its terminal event was already in) rather than leaving
	// it to the collector. A submission refused, or cut off by the
	// window's deadline, is a failed job, never an error.
	submit(ctx context.Context, rec *jobRec) (settled bool)
	// scan walks the whole job board once.
	scan(ctx context.Context) error
	// finish returns once every submitted job is terminal or the drain
	// deadline passed; verify then applies any correctness check that
	// needs the whole window.
	finish(ctx context.Context)
	verify(ctx context.Context, recs []jobRec) error
	// cpuSeconds and mallocs read the measured process's cumulative CPU
	// time and allocation count; peakRSSMB its resident-set high-water
	// mark since the last resetPeakRSS.
	cpuSeconds() (float64, error)
	mallocs() (float64, error)
	peakRSSMB() (float64, error)
	resetPeakRSS() error
	// counters reads the program's own public counters.
	counters() (counters, error)
	close()
}

// counters are the program's public counts the harness checks its own
// against or reports per layer.
type counters struct {
	completed     float64 // vdce_jobs_completed_total
	events        float64 // vdce_events_published_total
	execPeak      float64 // engine peak application concurrency
	rankCacheHits float64 // ranked-host cache hit ratio
}

// jobRec is everything the harness learns about one job, all of it from
// outside: its own clocks plus the public JobTimings and TaskRuns.
type jobRec struct {
	pick pick
	// id is the server-assigned job ID (server workload only).
	id string
	// due is when the open-loop schedule wanted the job sent; every
	// latency counts from here, so a stall is charged to the jobs it
	// delayed.
	due                time.Time
	callStart, callEnd time.Time
	// t is the job's public phase-boundary block.
	t services.JobTimings
	// observed is when the client saw the terminal state: the SSE event's
	// arrival (server), or the done signal when the collector was already
	// waiting on this job (in-process; zero otherwise).
	observed    time.Time
	terminal    bool
	fail        string
	reschedules int
	runs        []exec.TaskRun
}

// end is the job's completion as the client counts it.
func (r *jobRec) end(server bool) time.Time {
	if server {
		return r.observed
	}
	return r.t.FinishedAt
}

// windowMode selects what a window records and how it is paced.
type windowMode struct {
	// traced keeps the per-task runs for the span file.
	traced bool
	// outstanding > 0 replaces the paced schedule with a closed loop of
	// that many clients: a job is due the moment a client is free.
	outstanding int
	tokens      chan struct{}
}

// window is one paced stretch of a workload.
type window struct {
	recs []jobRec
	// slice k is recs[sliceStart[k]:sliceStart[k+1]]; sliceCPU[k] is the
	// measured process's CPU seconds when its first job was due, with one
	// more reading after the drain; sliceRSS[k] is its peak resident set,
	// MB, between those two readings.
	sliceStart []int
	sliceCPU   []float64
	sliceRSS   []float64
	rssReset   string    // why the last high-water reset failed, if it did
	scans      []float64 // full board walks, ms
	scanAt     []int     // index of the job each walk followed
	maxLate    time.Duration
	// kernelBefore/After time a fixed CPU kernel, ms.
	kernelBefore, kernelAfter   float64
	mallocsBefore, mallocsAfter float64
	cntBefore, cntAfter         counters
	loadavg                     string
}

// runWindow offers n jobs of the workload at its fixed rate (or, in a
// closed loop, as fast as the clients free up) and waits for the
// stragglers. The generator runs on the calling goroutine, the collector
// on one more.
func runWindow(ctx context.Context, d driver, sp spec, picks *picker, n int, mode windowMode) (*window, error) {
	w := &window{recs: make([]jobRec, n)}
	tick := time.Duration(float64(sp.burst) / sp.rate * float64(time.Second))
	// Equal slices of whole bursts; a closed loop is one slice.
	nslices := 1
	if mode.outstanding == 0 {
		nslices = max(1, int(float64(n)/sp.rate/sliceSeconds+0.5))
	}
	perSlice := max(1, n/sp.burst/nslices) * sp.burst
	var err error
	w.kernelBefore = cpuKernelMS()
	if w.mallocsBefore, err = d.mallocs(); err != nil {
		return nil, err
	}
	if w.cntBefore, err = d.counters(); err != nil {
		return nil, err
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	lastDue := t0.Add(time.Duration(n/sp.burst-1) * tick)
	wctx, cancel := context.WithDeadline(ctx, lastDue.Add(drainAfter))
	defer cancel()
	if mode.outstanding > 0 {
		mode.tokens = make(chan struct{}, mode.outstanding)
		for i := 0; i < mode.outstanding; i++ {
			mode.tokens <- struct{}{}
		}
	}
	d.begin(wctx, mode)
	genErr := func() error {
		for i := range w.recs {
			if wctx.Err() != nil {
				return nil // interrupted, or the drain deadline passed mid-schedule
			}
			if i%perSlice == 0 && len(w.sliceStart) < nslices {
				if err := w.cut(d, i); err != nil {
					return err
				}
			}
			rec := &w.recs[i]
			rec.pick = picks.next()
			if mode.outstanding > 0 {
				select {
				case <-mode.tokens:
				case <-wctx.Done():
				}
				rec.due = time.Now()
			} else {
				rec.due = t0.Add(time.Duration(i/sp.burst) * tick)
				sleepUntil(rec.due)
			}
			if d.submit(wctx, rec) && mode.tokens != nil {
				// No collector will free this client.
				mode.tokens <- struct{}{}
			}
			if late := rec.callStart.Sub(rec.due); late > w.maxLate {
				w.maxLate = late
			}
			if sp.scanEvery > 0 && (i+1)%sp.scanEvery == 0 {
				s0 := time.Now()
				if err := d.scan(wctx); err != nil {
					if wctx.Err() != nil {
						return nil // the drain deadline cut the walk short
					}
					return err
				}
				w.scans, w.scanAt = append(w.scans, time.Since(s0).Seconds()*1e3), append(w.scanAt, i)
			}
		}
		return nil
	}()
	d.finish(wctx)
	if genErr != nil {
		return nil, genErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := d.verify(ctx, w.recs); err != nil {
		return nil, err
	}
	if err := w.cut(d, n); err != nil {
		return nil, err
	}
	if w.mallocsAfter, err = d.mallocs(); err != nil {
		return nil, err
	}
	if w.cntAfter, err = d.counters(); err != nil {
		return nil, err
	}
	w.kernelAfter = cpuKernelMS()
	w.loadavg = loadavg()
	return w, nil
}

// cut ends the current slice, if any, and starts the next at job i:
// it reads the measured process's CPU clock, and its peak resident set
// over the slice just ended, then resets that high-water mark.
func (w *window) cut(d driver, i int) error {
	cpu, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	if len(w.sliceStart) > 0 {
		rss, err := d.peakRSSMB()
		if err != nil {
			return err
		}
		w.sliceRSS = append(w.sliceRSS, rss)
	}
	w.sliceStart, w.sliceCPU = append(w.sliceStart, i), append(w.sliceCPU, cpu)
	// Where the kernel refuses the reset, the readings are the high-water
	// mark so far and their median the peak up to mid-window: still a
	// peak, the same on both sides of a comparison. The detail block says
	// so.
	if err := d.resetPeakRSS(); err != nil {
		w.rssReset = err.Error()
	}
	return nil
}

// sleepUntil blocks the generator until t with the kernel's
// high-resolution timer. time.Sleep on an otherwise idle process waits
// in the netpoller at millisecond granularity and wakes 0.6-1 ms late,
// which every job of a 3 ms-turnaround workload would carry as
// generator lateness; nanosleep wakes within ~0.1 ms. A signal (the
// runtime's preemption) ends a nanosleep early, hence the loop.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// summary is a window reduced to its end-to-end numbers.
type summary struct {
	attempted, ok, inflight int
	turnaround              []float64 // ms, ok jobs, pooled and sorted
	// Per slice: the p50 and p90 turnaround of its ok jobs, the measured
	// process's CPU per offered job, and the median board walk.
	sliceP50, sliceP90, sliceCPU, sliceScan []float64
	// seconds runs from the first due time to the last ok completion.
	seconds, jobsPerS float64
	firstFail         string
}

func (cfg runConfig) summarize(w *window) summary {
	server, okWithin := cfg.spec.server, cfg.okWithin
	s := summary{attempted: len(w.recs)}
	var last time.Time
	for k := 0; k+1 < len(w.sliceStart); k++ {
		from, to := w.sliceStart[k], w.sliceStart[k+1]
		var ms []float64
		for i := from; i < to; i++ {
			r := &w.recs[i]
			if !r.terminal {
				s.inflight++
				if s.firstFail == "" {
					s.firstFail = "still in flight at the drain deadline"
				}
				continue
			}
			end := r.end(server)
			if r.fail == "" && end.Sub(r.due) > okWithin {
				r.fail = fmt.Sprintf("finished %v after its due time", end.Sub(r.due))
			}
			if r.fail != "" {
				if s.firstFail == "" {
					s.firstFail = r.fail
				}
				continue
			}
			s.ok++
			ms = append(ms, end.Sub(r.due).Seconds()*1e3)
			if end.After(last) {
				last = end
			}
		}
		slices.Sort(ms)
		s.turnaround = append(s.turnaround, ms...)
		s.sliceP50 = append(s.sliceP50, percentile(ms, 0.50))
		s.sliceP90 = append(s.sliceP90, percentile(ms, 0.90))
		s.sliceCPU = append(s.sliceCPU, (w.sliceCPU[k+1]-w.sliceCPU[k])*1e3/float64(to-from))
		var scans []float64
		for j, at := range w.scanAt {
			if at >= from && at < to {
				scans = append(scans, w.scans[j])
			}
		}
		if len(scans) > 0 {
			s.sliceScan = append(s.sliceScan, median(scans))
		}
	}
	slices.Sort(s.turnaround)
	if s.ok > 0 {
		s.seconds = last.Sub(w.recs[0].due).Seconds()
		s.jobsPerS = float64(s.ok) / s.seconds
	}
	return s
}

// warmUp brings the deployment to its steady state: a closed-loop fill
// pushes as many jobs through as the system retains (the board, the
// pipeline's registry and the heap behind them stop growing — on this VM
// a heap still growing during the window costs more in first-touch page
// faults than the program's own work), then warmupSeconds of the
// workload's own paced traffic. It returns how long that paced stretch
// took, first due time to last completion: the fixed part of setup_s. A
// run shorter than the fill scales it down.
func warmUp(ctx context.Context, cfg runConfig, d driver, picks *picker) (float64, error) {
	sp := cfg.spec
	fill := sp.retained
	if fill == 0 {
		fill = defaultRetained
	}
	fill = min(fill, sp.jobs(cfg.seconds)) / sp.burst * sp.burst
	if _, err := runWindow(ctx, d, sp, picks, fill, windowMode{outstanding: fillOutstanding}); err != nil {
		return 0, fmt.Errorf("warm-up fill: %w", err)
	}
	w, err := runWindow(ctx, d, sp, picks, sp.jobs(min(warmupSeconds, cfg.seconds)), windowMode{})
	if err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	s := cfg.summarize(w)
	if s.ok == 0 {
		return 0, errors.New("warm-up: no job succeeded: " + s.firstFail)
	}
	return s.seconds, nil
}

// runMeasured is the untraced run: set-up, warm-up, one window, the
// end-to-end metrics.
func runMeasured(ctx context.Context, cfg runConfig, d driver) (*result, error) {
	picks := newPicker(cfg.seed, len(d.graphs()), cfg.spec.owners)
	warm, err := warmUp(ctx, cfg, d, picks)
	if err != nil {
		return nil, err
	}
	w, err := runWindow(ctx, d, cfg.spec, picks, cfg.spec.jobs(cfg.seconds), windowMode{})
	if err != nil {
		return nil, err
	}
	s := cfg.summarize(w)
	if s.ok == 0 {
		return nil, errors.New("no job succeeded: " + s.firstFail)
	}
	jobs := float64(s.attempted)
	perSlice := len(s.turnaround) / len(s.sliceP50)
	res := &result{
		Correct:   s.ok == s.attempted,
		Attempted: s.attempted,
		Failed:    s.attempted - s.ok,
		Metrics: map[string]metric{
			"setup_s":        {d.setupSeconds() + warm, "s"},
			"jobs_per_s":     {s.jobsPerS, "1/s"},
			"allocs_per_job": {(w.mallocsAfter - w.mallocsBefore) / jobs, "count"},
			"peak_rss_mb":    {median(w.sliceRSS), "MB"},
			"ok_frac":        {float64(s.ok) / jobs, "ratio"},
		},
	}
	printDetail(fmt.Sprintf("%s seed=%d seconds=%g (untraced)", cfg.spec.name, cfg.seed, cfg.seconds), map[string]any{
		"setup.cold_median_s":      d.setupSeconds(),
		"setup.paced_warmup_s":     warm,
		"slices":                   len(s.sliceP50),
		"median.turnaround_p50_ms": median(s.sliceP50),
		"median.turnaround_p90_ms": median(s.sliceP90),
		"median.cpu_ms_per_job":    median(s.sliceCPU),
		"median.list_scan_ms":      median(s.sliceScan),
		"slice.p50_ms":             fmt.Sprintf("%.2f", s.sliceP50),
		"slice.p90_ms":             fmt.Sprintf("%.2f", s.sliceP90),
		"slice.list_scan_ms":       fmt.Sprintf("%.3f", s.sliceScan),
		"slice.cpu_ms_per_job":     fmt.Sprintf("%.3f", s.sliceCPU),
		"slice.peak_rss_mb":        fmt.Sprintf("%.1f", w.sliceRSS),
		"peak_rss_reset_error":     w.rssReset,
		"samples.turnaround":       len(s.turnaround),
		"samples.per_slice":        perSlice,
		"samples.beyond_slice_p90": perSlice - int(0.90*float64(perSlice)),
		"samples.list_scan":        len(w.scans),
		"pooled.turnaround_p50_ms": percentile(s.turnaround, 0.50),
		"pooled.turnaround_p90_ms": percentile(s.turnaround, 0.90),
		"pooled.turnaround_p99_ms": percentile(s.turnaround, 0.99),
		"pooled.turnaround_max_ms": percentile(s.turnaround, 1),
		"pooled.cpu_ms_per_job":    (w.sliceCPU[len(w.sliceCPU)-1] - w.sliceCPU[0]) * 1e3 / jobs,
		"generator_max_late_ms":    w.maxLate.Seconds() * 1e3,
		"inflight_at_window_end":   s.inflight,
		"first_failure":            s.firstFail,
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"nproc":                    runtime.NumCPU(),
		"loadavg":                  w.loadavg,
		"cpu_kernel_before_ms":     w.kernelBefore,
		"cpu_kernel_after_ms":      w.kernelAfter,
		"metrics_completed_diff":   (w.cntAfter.completed - w.cntBefore.completed) - float64(s.attempted-s.inflight),
	})
	return res, nil
}

// sameOutputs reports whether a job's task outputs equal the reference.
// The matrix types get direct slice comparisons: reflect.DeepEqual over
// a hundred thousand floats per job would cost the harness a visible
// share of the CPU it is measuring.
func sameOutputs(got, want map[afg.TaskID][]tasklib.Value) bool {
	if len(got) != len(want) {
		return false
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !sameValue(g[i], w[i]) {
				return false
			}
		}
	}
	return true
}

func sameValue(a, b tasklib.Value) bool {
	switch x := a.(type) {
	case *linalg.Matrix:
		y, ok := b.(*linalg.Matrix)
		return ok && sameMatrix(x, y)
	case *tasklib.LUResult:
		y, ok := b.(*tasklib.LUResult)
		return ok && sameMatrix(x.L, y.L) && sameMatrix(x.U, y.U) &&
			slices.Equal(x.Perm, y.Perm) && x.Swaps == y.Swaps
	case []float64:
		y, ok := b.([]float64)
		return ok && slices.Equal(x, y)
	default:
		return reflect.DeepEqual(a, b)
	}
}

func sameMatrix(a, b *linalg.Matrix) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.Data, b.Data)
}
