package vdce

import (
	"log/slog"

	"vdce/internal/detect"
	"vdce/internal/obs"
	"vdce/internal/services"
)

// discardLog backs every nil-logger default so call sites never branch.
var discardLog = slog.New(slog.DiscardHandler)

// envMetrics holds the pre-resolved handles every pipeline hot path
// records through. Handles are resolved once here — label lookup,
// map access, and allocation all happen at wiring time — so the
// record calls on the submit/schedule/dispatch paths are pure atomics.
type envMetrics struct {
	// Admission.
	submitWait      *obs.Histogram // submitted → admitted
	accepted        *obs.Counter
	rejectQueueFull *obs.Counter
	rejectDeadline  *obs.Counter
	rejectStore     *obs.Counter
	rejectQuota     *obs.Counter

	// Scheduler.
	roundLatency *obs.Histogram

	// Job lifecycle phase durations, observed when each boundary is
	// crossed or at terminalize.
	phaseQueueWait    *obs.Histogram // admitted → scheduled
	phaseDispatchWait *obs.Histogram // scheduled → dispatched
	phaseRun          *obs.Histogram // running → terminal
	phaseTotal        *obs.Histogram // submitted → terminal
	completedDone     *obs.Counter
	completedFailed   *obs.Counter
	completedCanceled *obs.Counter
	hostParks         *obs.Counter
	// outputsEvicted counts results whose Outputs the output ledger dropped.
	outputsEvicted *obs.Counter

	// Execution recovery (fed by the engine's per-job event stream).
	reschedules  *obs.Counter
	hostFailures *obs.Counter

	// Quarantine opens per host, incremented by the detector subscriber
	// New installs. GET /v1/hosts reports this counter, so the HTTP view
	// and /metrics read one cell.
	breakerOpens *obs.CounterVec

	// Boot replay outcomes.
	recoveryRequeued     *obs.Counter
	recoveryRedispatched *obs.Counter
	recoveryTerminal     *obs.Counter
	recoveryExpired      *obs.Counter

	// Durable-store appends that failed, by operation (see storeErr).
	storeErrors *obs.CounterVec
	// Task-performance measurements no site could apply (see recordPerf).
	perfDropped *obs.Counter
}

// newEnvMetrics registers the pipeline's metric families on reg and
// resolves every hot-path handle.
func newEnvMetrics(reg *obs.Registry) *envMetrics {
	rejects := reg.Counter("vdce_admission_rejects_total",
		"Submissions rejected at admission, by reason (shed reasons plus owner quota).", "reason")
	phase := reg.Histogram("vdce_job_phase_seconds",
		"Job lifecycle phase durations: submit_wait, queue_wait, dispatch_wait, run, total.",
		obs.DefBuckets, "phase")
	completed := reg.Counter("vdce_jobs_completed_total",
		"Jobs reaching a terminal state, by state.", "state")
	recovery := reg.Counter("vdce_recovery_jobs_total",
		"Boot-replay outcomes of jobs recovered from the durable store.", "outcome")
	return &envMetrics{
		submitWait: reg.Histogram("vdce_admission_submit_wait_seconds",
			"Time from Submit to admission-queue entry (backpressure wait).", obs.DefBuckets).With(),
		accepted: reg.Counter("vdce_admission_accepted_total",
			"Submissions admitted into the queue.").With(),
		rejectQueueFull: rejects.With(ShedQueueFull),
		rejectDeadline:  rejects.With(ShedDeadlineInfeasible),
		rejectStore:     rejects.With(ShedStoreUnavailable),
		rejectQuota:     rejects.With("quota"),
		roundLatency: reg.Histogram("vdce_scheduler_round_seconds",
			"Site-scheduler round latency (Fig. 2 round per job).", obs.DefBuckets).With(),
		phaseQueueWait:    phase.With("queue_wait"),
		phaseDispatchWait: phase.With("dispatch_wait"),
		phaseRun:          phase.With("run"),
		phaseTotal:        phase.With("total"),
		completedDone:     completed.With(services.JobStateDone),
		completedFailed:   completed.With(services.JobStateFailed),
		completedCanceled: completed.With(services.JobStateCanceled),
		hostParks: reg.Counter("vdce_dispatch_host_parks_total",
			"Scheduled jobs parked on the per-owner held-hosts quota.").With(),
		outputsEvicted: reg.Counter("vdce_outputs_evicted_total",
			"Finished jobs whose result outputs were dropped to keep retained outputs inside the byte budget.").With(),
		reschedules: reg.Counter("vdce_exec_reschedules_total",
			"Mid-run task reschedules across all jobs.").With(),
		hostFailures: reg.Counter("vdce_exec_host_failures_total",
			"Distinct per-job host failures forcing recovery.").With(),
		breakerOpens: reg.Counter("vdce_breaker_opens_total",
			"Circuit-breaker open transitions, by host.", "host"),
		recoveryRequeued:     recovery.With("requeued"),
		recoveryRedispatched: recovery.With("redispatched"),
		recoveryTerminal:     recovery.With("terminal-retained"),
		recoveryExpired:      recovery.With("deadline-expired"),
		storeErrors: reg.Counter("vdce_store_errors_total",
			"Durable-store appends that failed while the in-memory pipeline kept serving, by operation.", "op"),
		perfDropped: reg.Counter("vdce_taskperf_dropped_total",
			"Task-performance measurements dropped at write-back or boot replay: unknown task, negative elapsed time, or a host no site owns.").With(),
	}
}

// storeErr is the one place a failed durable-store append goes: the
// in-memory pipeline keeps serving (the job completes, the owner update
// applies), so the failure is logged with its subject (key, val) and
// counted by operation instead of vanishing. A nil err is a no-op and
// costs the hot path nothing: plain string arguments, no boxing.
func (env *Environment) storeErr(op string, err error, key, val string) {
	if err == nil {
		return
	}
	env.obsM.storeErrors.With(op).Inc()
	env.log.Warn("store append failed", "op", op, key, val, "error", err.Error())
}

// registerDerived registers the scrape-time collectors that sample
// subsystems which already answer cheaply on demand: queue depth,
// in-flight counts, retry-gate totals, rank-cache counters, quarantine
// census, and broker subscribers. Called once from New after the
// pipeline is running; nothing here touches a hot path.
func (env *Environment) registerDerived(reg *obs.Registry) {
	pipe := env.pipe
	reg.GaugeFunc("vdce_admission_queue_depth",
		"Jobs waiting in the admission queue across owners.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.queuedLen()))
		})
	reg.GaugeFunc("vdce_admission_owners",
		"Owner shares the admission queue currently tracks (live state only; drained owners are pruned).", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.ownerCount()))
		})
	reg.CounterFunc("vdce_admission_owner_prunes_total",
		"Idle owner shares retired from the admission queue.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(pipe.admit.pruneCount()))
		})
	reg.GaugeFunc("vdce_board_jobs",
		"Rows the job board retains.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Board.CountFiltered("", "")))
		})
	reg.GaugeFunc("vdce_retained_output_bytes",
		"In-memory bytes of task outputs delivered to a live handle and not yet evicted; a handle dropped since still counts until its entry leaves (bounded at 64 MiB plus the newest result).", nil,
		func(emit func(v float64, labelVals ...string)) {
			pipe.mu.Lock()
			defer pipe.mu.Unlock()
			emit(float64(pipe.outBytes))
		})
	reg.GaugeFunc("vdce_jobs_inflight",
		"Admitted jobs not yet terminal (board view).", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Board.InFlight()))
		})
	reg.GaugeFunc("vdce_exec_dispatch_concurrency",
		"Applications executing right now.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.InFlight()))
		})
	reg.GaugeFunc("vdce_exec_dispatch_peak",
		"High-water mark of concurrent application executions.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.PeakConcurrency()))
		})
	reg.CounterFunc("vdce_exec_retries_total",
		"Engine retry attempts admitted by the token-bucket budget.", nil,
		func(emit func(v float64, labelVals ...string)) {
			retries, _ := env.Engine.RetryStats()
			emit(float64(retries))
		})
	reg.CounterFunc("vdce_exec_retry_parks_total",
		"Engine retries parked waiting for a budget token.", nil,
		func(emit func(v float64, labelVals ...string)) {
			_, parked := env.Engine.RetryStats()
			emit(float64(parked))
		})
	reg.CounterFunc("vdce_exec_frames_total",
		"Edge deliveries the Data Manager accepted.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.TransferStats().Frames))
		})
	reg.CounterFunc("vdce_exec_transfer_bytes_total",
		"Encoded value bytes carried by Data Manager frames.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(env.Engine.TransferStats().Bytes))
		})
	reg.CounterFunc("vdce_scheduler_rankcache_total",
		"Ranked-host cache counters summed across sites, by event.",
		[]string{"event"},
		func(emit func(v float64, labelVals ...string)) {
			var hits, misses, inval int64
			for _, s := range env.Sites {
				cs := s.CacheStats()
				hits += cs.Hits
				misses += cs.Misses
				inval += cs.Invalidations
			}
			emit(float64(hits), "hit")
			emit(float64(misses), "miss")
			emit(float64(inval), "invalidation")
		})
	reg.GaugeFunc("vdce_scheduler_rankcache_hit_ratio",
		"Fraction of RankedHosts calls served from the generation cache.", nil,
		func(emit func(v float64, labelVals ...string)) {
			var agg struct{ hits, misses int64 }
			for _, s := range env.Sites {
				cs := s.CacheStats()
				agg.hits += cs.Hits
				agg.misses += cs.Misses
			}
			if agg.hits+agg.misses == 0 {
				emit(0)
				return
			}
			emit(float64(agg.hits) / float64(agg.hits+agg.misses))
		})
	reg.GaugeFunc("vdce_breaker_hosts",
		"Hosts per circuit-breaker state.", []string{"state"},
		func(emit func(v float64, labelVals ...string)) {
			counts := env.Detector.Counts()
			for _, p := range []detect.State{detect.Closed, detect.Open, detect.HalfOpen} {
				emit(float64(counts[p]), p.String())
			}
		})
}
