// Package vdce is the public facade of the Virtual Distributed Computing
// Environment reproduction: it wires the simulated wide-area testbed,
// the per-site repositories and schedulers, the Control Manager daemons,
// the execution engine, and the Application Editor into one Environment
// that can build, schedule, and execute applications end to end.
//
// The Environment is multi-tenant: every application runs through its
// concurrent submission pipeline. Submit admits an application flow
// graph — configured with functional options (WithOwner, WithPriority,
// WithDeadline, WithHomeSite, WithMaxHosts, WithLabels) — into a
// bounded fair-share priority queue and returns a *Job handle
// immediately. Within one owner, jobs dequeue by effective priority
// (the owner's user-account priority unless overridden, aged upward
// while the job waits so nothing starves); across owners the queue
// drains by weighted fair queuing (WithShareWeight, defaulting from
// the account priority) with per-owner quotas on queued jobs,
// in-flight jobs, and held hosts (PipelineConfig.Quota), so no single
// user monopolizes the shared testbed. A pool of scheduler workers
// runs core.Scheduler rounds
// concurrently — each job scheduled from its home site (round-robin for
// anonymous submissions, the submitting site for owned ones), so rounds
// spread across sites — and a bounded dispatch path executes
// independent jobs' task graphs simultaneously on the shared testbed
// (one task per machine at a time, enforced engine-wide). Jobs move
// through queued -> scheduling -> running -> done|failed|canceled;
// observe one job with Job.Wait/Job.Done, cancel it with Job.Cancel,
// drain all with Drain, and follow the fleet's lifecycle through the
// Board (services.JobBoard), Jobs, or the versioned /v1/jobs HTTP
// surface (internal/jobsapi, mounted by vdce-server and the editor).
// PipelineConfig in Config sizes the queue, the worker pool, the
// execution concurrency, and the priority-aging rate.
//
// Reproduces Topcuoglu & Hariri, "A Global Computing Environment for
// Networked Resources", ICPP 1997.
package vdce

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/control"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/editor"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/netmodel"
	"vdce/internal/obs"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// Config assembles an Environment.
type Config struct {
	// Testbed shapes the fabricated hardware (sites, groups, hosts).
	Testbed testbed.Config
	// LoadThreshold is the Application Controller's rescheduling trigger;
	// 0 disables it.
	LoadThreshold float64
	// DilationScale emulates heterogeneous host speeds and the network's
	// transfer times during execution; 0 disables both.
	DilationScale float64
	// StartDaemons launches Monitor daemons and Group Managers; their
	// cadence is MonitorPeriod.
	StartDaemons  bool
	MonitorPeriod time.Duration
	// Detect tunes the heartbeat failure detector, which every
	// Environment runs: monitor reports feed a per-host last-seen clock,
	// echo timeouts are quorum votes, silent hosts move through suspect ->
	// confirmed-dead, and confirmed transitions land in the site
	// repositories as one epoch per round; tasks on a confirmed-dead host
	// are interrupted and rescheduled mid-run. Task outcomes feed each
	// host's failure-rate window, and a host failing too often is
	// quarantined from placement until half-open probes succeed. With
	// StartDaemons the evaluation loop runs on the wall clock; without,
	// synchronous drivers feed heartbeats via RefreshMonitoring and call
	// Detector.Tick on their own clock. Zero fields default relative to
	// MonitorPeriod (suspicion after 4 missed periods, quorum 2, one
	// evaluation round per period); the quarantine fields take the detect
	// defaults.
	Detect detect.Config
	// Pipeline sizes the concurrent submission pipeline behind Submit.
	// The zero value takes the PipelineConfig defaults.
	Pipeline PipelineConfig
	// Retry shapes the execution engine's rescheduling retries: jittered
	// exponential backoff per attempt plus an engine-wide token-bucket
	// retry budget, so a mass host failure cannot multiply load into a
	// retry storm. The zero value takes the exec defaults: backoff from
	// exec.DefaultRetryBaseDelay, unlimited budget.
	Retry exec.RetryConfig
	// StoreDir, when non-empty, makes the control plane durable: job
	// lifecycle, per-owner admin state, task-performance history, and the
	// event stream's high-water mark are logged to an append-only store
	// under this directory (internal/store), and a restarting Environment
	// replays it — queued jobs re-enter the admission queue with owner,
	// priority, deadline, and share weight intact; in-flight jobs are
	// re-adopted and re-dispatched; terminal jobs reappear on the board.
	// Empty keeps the control plane in memory only.
	StoreDir string
	// Store tunes the durable store (flush interval, compaction cadence)
	// when StoreDir is set; the zero value takes the store defaults.
	Store store.Options
	// Obs is the metrics registry every subsystem records into
	// (admission, scheduler rounds, exec, quarantine, WAL, event broker,
	// job phase histograms). Nil creates a fresh registry — there is
	// always one; pass a shared registry to aggregate several
	// environments onto one /metrics page.
	Obs *obs.Registry
	// Logger receives structured logs with job_id/owner correlation from
	// the pipeline, engine, and recovery paths. Nil discards.
	Logger *slog.Logger
}

// Environment is a fully wired VDCE instance.
type Environment struct {
	TB       *testbed.Testbed
	Net      *netmodel.Network
	Registry *tasklib.Registry
	Sites    []*core.LocalSite
	Groups   []*control.GroupManager
	Engine   *exec.Engine
	Console  *services.Console
	// Detector is the failure-detection service, the one owner of host
	// health: only its rounds write a host's up/down status.
	Detector *detect.Detector
	// Board tracks every submitted job's lifecycle for monitoring.
	Board *services.JobBoard
	// Store is the durable control-plane log (non-nil when
	// Config.StoreDir was set).
	Store *store.Store
	// Obs is the metrics registry behind GET /metrics: every subsystem's
	// counters, gauges, and histograms. Always non-nil.
	Obs *obs.Registry

	// perfMu serializes the task-performance write-backs.
	perfMu sync.Mutex
	// peers[i] lists every site but i: the remotes of site i's
	// Application Scheduler. Built once by New.
	peers  [][]core.SiteService
	cancel context.CancelCauseFunc
	pipe   *pipeline
	// obsM holds the pre-resolved hot-path metric handles; log is the
	// structured logger (discarding when Config.Logger was nil).
	obsM *envMetrics
	log  *slog.Logger
}

// New builds and starts an Environment.
func New(cfg Config) (*Environment, error) {
	tb, err := testbed.Build(cfg.Testbed)
	if err != nil {
		return nil, err
	}
	env := &Environment{
		TB:       tb,
		Net:      tb.Net,
		Registry: tasklib.Default(),
		Console:  services.NewConsole(),
		Board:    services.NewJobBoard(),
		Obs:      cfg.Obs,
		log:      cfg.Logger,
	}
	if env.Obs == nil {
		env.Obs = obs.NewRegistry()
	}
	if env.log == nil {
		env.log = discardLog
	}
	env.obsM = newEnvMetrics(env.Obs)
	// Install the task catalog and a default account at every site.
	for _, site := range tb.Sites {
		names := make([]string, len(site.Hosts))
		for i, h := range site.Hosts {
			names[i] = h.Name
		}
		if err := env.Registry.InstallInto(site.Repo, names); err != nil {
			return nil, err
		}
		if _, err := site.Repo.Users.AddUser("user_k", "vdce", 5, repository.DomainGlobal); err != nil {
			return nil, err
		}
		env.Sites = append(env.Sites, core.NewLocalSite(site.Repo))
	}
	for i := range env.Sites {
		peers := make([]core.SiteService, 0, len(env.Sites)-1)
		for j, site := range env.Sites {
			if j != i {
				peers = append(peers, site)
			}
		}
		env.peers = append(env.peers, peers)
	}

	// Open the durable store before anything that will write to it. An
	// unreadable log (including mid-log corruption, surfaced as a typed
	// *store.CorruptError) fails the boot rather than silently dropping
	// state.
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if cfg.Store.Metrics == nil {
			cfg.Store.Metrics = env.Obs
		}
		st, err = store.Open(cfg.StoreDir, cfg.Store)
		if err != nil {
			return nil, err
		}
		env.Store = st
		// Set the recovered task-performance estimates in the site
		// repositories — one epoch per site — so the scheduler's
		// execution-time estimates survive the restart instead of
		// resetting to catalog base times. The store holds one estimate
		// per (task, host) and the fresh databases none, so each is taken
		// as it stands. Estimates for hosts or tasks this testbed no
		// longer has are dropped and counted.
		perf := st.Recovered().Perf
		recs := make([]repository.Execution, len(perf))
		for i, p := range perf {
			recs[i] = repository.Execution{Task: p.Task, Host: p.Host, Elapsed: p.Smoothed}
		}
		env.recordPerf(recs)
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	env.cancel = cancel
	period := cfg.MonitorPeriod
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	dcfg := cfg.Detect
	if dcfg.SuspicionTimeout <= 0 {
		// One dropped report must never raise suspicion.
		dcfg.SuspicionTimeout = 4 * period
	}
	if dcfg.TickPeriod <= 0 {
		dcfg.TickPeriod = period
	}
	det := detect.New(dcfg)
	env.Detector = det
	for _, site := range tb.Sites {
		det.AddSite(site.Name, site.Repo.Resources)
	}
	if cfg.StartDaemons {
		for _, site := range tb.Sites {
			for _, gname := range site.GroupNames() {
				gm := control.NewGroupManager(gname, site.GroupHosts(gname), site.Repo.Resources, det, period)
				gm.EchoPeriod = period
				env.Groups = append(env.Groups, gm)
				go gm.Run(ctx)
			}
		}
	}

	env.Engine = &exec.Engine{
		Reg:           env.Registry,
		TB:            tb,
		LoadThreshold: cfg.LoadThreshold,
		DilationScale: cfg.DilationScale,
		Reschedule:    exec.NewRescheduler(env.Sites),
		Retry:         cfg.Retry,
		Health:        det,
		Console:       env.Console,
		Log:           cfg.Logger,
	}
	env.Engine.Record = env.writeBack
	// Quarantine transitions feed the opens counter /v1/hosts and
	// /metrics share, and the structured log.
	det.Subscribe(func(tr detect.Transition) {
		if !tr.To.Quarantine() {
			return
		}
		if tr.To == detect.Open {
			env.obsM.breakerOpens.With(tr.Host).Inc()
		}
		env.log.Info("breaker transition", "host", tr.Host, "from", tr.From.String(), "to", tr.To.String())
	})
	if cfg.StartDaemons {
		// The wall-clock evaluation loop only makes sense against live
		// daemon heartbeats; synchronous drivers Tick the detector on
		// their own clock instead.
		go det.Run(ctx)
	}
	env.pipe = startPipeline(ctx, env, cfg.Pipeline, st)
	env.registerDerived(env.Obs)
	if st != nil {
		r := env.pipe.recovery
		env.log.Info("recovery replay complete",
			"queued_recovered", r.QueuedRecovered,
			"inflight_redispatched", r.InFlightRedispatched,
			"terminal_retained", r.TerminalRetained,
			"deadline_expired", r.DeadlineExpiredAtReplay)
	}
	return env, nil
}

// writeBack is the task-performance write-back of one run. With a
// durable store, the estimates the databases computed are logged too, so
// a restarted control plane schedules with learned estimates, not
// catalog defaults; perfMu keeps the log's order of a pair's estimates
// the order the databases computed them in.
func (env *Environment) writeBack(recs []repository.Execution) {
	env.perfMu.Lock()
	defer env.perfMu.Unlock()
	env.recordPerf(recs)
	if env.Store == nil {
		return
	}
	perf := make([]store.PerfRecord, 0, len(recs))
	for _, rec := range recs {
		// Only the site that owns the host holds the estimate; a record
		// for a host no site owns was dropped, and counted, above.
		h, err := env.TB.Host(rec.Host)
		if err != nil {
			continue
		}
		site, err := env.TB.Site(h.Site)
		if err != nil {
			continue
		}
		if d, ok := site.Repo.Snapshot().Measurements(rec.Task).On(rec.Host); ok {
			perf = append(perf, store.PerfRecord{Task: rec.Task, Host: rec.Host, Smoothed: d})
		}
	}
	if len(perf) > 0 {
		env.storeErr("perf-measured", env.Store.PerfEstimated(perf...), "first_task", perf[0].Task)
	}
}

// recordPerf folds one run's measurements (or the recovered estimates at
// boot) into the task-performance databases: each site's database takes
// those made on its hosts as one epoch. What no site could apply — an
// unknown task, a negative elapsed time, a host no site owns — is
// counted, not lost silently.
func (env *Environment) recordPerf(recs []repository.Execution) {
	dropped := len(recs)
	for _, site := range env.Sites {
		dropped -= site.Repo.RecordExecutions(recs)
	}
	if dropped > 0 {
		env.obsM.perfDropped.Add(float64(dropped))
		env.log.Debug("task-performance measurements dropped", "dropped", dropped, "of", len(recs))
	}
}

// Close stops the submission pipeline, the daemons and the execution
// engine. Every job not yet terminal fails with ErrPipelineClosed,
// wherever it waits; a running job is aborted through the execution
// engine's cancellation path and its error reads "ErrPipelineClosed:
// <engine error>". Close returns once every job is terminal. With a
// durable store configured, Close is the graceful
// shutdown: the store compacts and fsyncs, and the shutdown-induced
// terminal states are not persisted — durably, queued and in-flight
// jobs remain queued/running, exactly what the next boot re-adopts.
func (env *Environment) Close() {
	env.shutdown(true)
}

// Crash is the SIGKILL-equivalent teardown (tests and the chaos
// scenario's server-restart fault): everything stops, but the durable
// store is abandoned rather than closed — no final compaction, no
// graceful flush beyond the group-commit batch already handed to the
// OS. Whatever the commit window had not yet accepted is lost, exactly
// as a real crash would lose it; a new Environment on the same StoreDir
// then exercises the true recovery path.
func (env *Environment) Crash() {
	env.shutdown(false)
}

func (env *Environment) shutdown(graceful bool) {
	if env.pipe != nil {
		env.pipe.stop(env.cancel)
	} else if env.cancel != nil {
		env.cancel(ErrPipelineClosed)
	}
	// The pipeline has settled every job, and with it every run's Data
	// Manager: closing the engine only refuses later runs.
	if env.Engine != nil {
		env.Engine.Close()
	}
	if env.Store != nil {
		if graceful {
			env.Store.Close()
		} else {
			env.Store.Abandon()
		}
	}
}

// Recovery reports what this Environment's boot replay of the durable
// store did: queued jobs re-admitted, in-flight jobs re-dispatched,
// terminal jobs retained. The zero report means there was no store or
// it was empty.
func (env *Environment) Recovery() RecoveryReport {
	return env.pipe.recovery
}

// taskCosts writes each task's level-computation cost, its time on the
// base processor in seconds, by task ID from site 0's task-performance
// database (every site holds the same catalog) into buf's backing array,
// grown if short, and returns it.
func (env *Environment) taskCosts(g *afg.Graph, buf []float64) ([]float64, error) {
	if len(env.Sites) == 0 {
		return buf, errors.New("vdce: no sites")
	}
	oracle := env.Sites[0].Oracle
	costs := slices.Grow(buf[:0], len(g.Tasks))
	for _, task := range g.Tasks {
		d, err := oracle.BaseTimeFor(task.Name)
		if err != nil {
			return costs, err
		}
		costs = append(costs, d.Seconds())
	}
	return costs, nil
}

// Schedule runs the distributed scheduler from site 0 with k
// nearest-neighbor sites (Fig. 2 step 2).
func (env *Environment) Schedule(g *afg.Graph, k int) (*core.AllocationTable, error) {
	var buf [16]float64 // a small graph's costs stay on the stack
	costs, err := env.taskCosts(g, buf[:])
	if err != nil {
		return nil, err
	}
	sched := core.Scheduler{Local: env.Sites[0], Remote: env.peers[0], Net: env.Net, K: k}
	return sched.Schedule(g, func(id afg.TaskID) float64 { return costs[id] })
}

// ClampK applies the owner's access domain type (the fifth field of the
// paper's user-account tuple) to a requested neighbor count: local users
// stay on the submitting site, campus users reach at most the two
// nearest sites, global users are unrestricted. Unknown owners are
// treated as local.
func (env *Environment) ClampK(owner string, k int) int {
	acct, err := env.Sites[0].Repo.Users.Lookup(owner)
	if err != nil {
		return 0
	}
	switch acct.Domain {
	case repository.DomainGlobal:
		return k
	case repository.DomainCampus:
		if k > 2 {
			return 2
		}
		return k
	default:
		return 0
	}
}

// EditorServer returns an Application Editor wired to site 0's
// accounts. Submissions run through the versioned job-control API: POST
// /v1/apps/{id}/submit enqueues into the concurrent submission pipeline
// with per-job priority, deadline, and max-hosts (k unless the request
// overrides it; the submitting user's access domain bounds it), and
// /v1/jobs (mounted owner-scoped, so users cancel only their own jobs)
// serves status, events and cancellation.
func (env *Environment) EditorServer(k int) *editor.Server {
	srv := editor.NewServer(env.Sites[0].Repo.Users, env.Registry, func(ctx context.Context, owner string, g *afg.Graph, o editor.JobOptions) (services.JobStatus, error) {
		opts := []SubmitOption{WithOwner(owner), WithMaxHosts(k)}
		if o.MaxHosts != nil {
			opts = append(opts, WithMaxHosts(*o.MaxHosts))
		}
		if o.Priority != nil {
			opts = append(opts, WithPriority(*o.Priority))
		}
		if o.ShareWeight != nil {
			opts = append(opts, WithShareWeight(*o.ShareWeight))
		}
		if o.Deadline > 0 {
			opts = append(opts, WithDeadline(time.Now().Add(o.Deadline)))
		}
		job, err := env.Submit(ctx, g, opts...)
		if err != nil {
			var se *ShedError
			switch {
			case errors.As(err, &se):
				// Adaptive load shedding: surface as 503 + Retry-After,
				// carrying the shedder's reason and backoff hint.
				err = &editor.OverloadedError{
					RetryAfter: se.RetryAfter, Reason: se.Reason, Err: err,
				}
			case errors.Is(err, ErrQuotaExceeded):
				// Per-owner admission quota: a 429, not a 400 — the
				// request was fine, the owner must back off.
				err = fmt.Errorf("%w: %v", editor.ErrQuotaExceeded, err)
			case errors.Is(err, ErrJobDeadlineExceeded), errors.Is(err, ErrJobCanceled),
				errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
				// Failures the request itself caused surface as 400s.
				err = fmt.Errorf("%w: %v", editor.ErrBadSubmission, err)
			}
			return services.JobStatus{}, err
		}
		return job.Status(), nil
	})
	srv.Jobs = env.JobsHandler(jobsapi.Config{
		Authenticate: srv.SessionUser,
		OwnerScoped:  true,
	})
	return srv
}

// JobsHandler mounts the versioned job-control API (/v1/jobs) over this
// environment's pipeline. The caller supplies authentication and
// scoping; Source is filled in, and unless the caller overrides them,
// the event broker and per-owner request rate limit come from the
// pipeline configuration — so every mount (vdce-server, editor) streams
// the same events and enforces the same budget.
func (env *Environment) JobsHandler(cfg jobsapi.Config) http.Handler {
	cfg.Source = env
	if cfg.Events == nil {
		cfg.Events = env.pipe.events
	}
	if !cfg.RateLimit.Enabled() {
		cfg.RateLimit = env.pipe.cfg.APIRate
	}
	if cfg.Metrics == nil {
		// Every mount shares the environment's registry, so per-owner
		// throttle counters aggregate across mounts and /v1/owners can
		// never disagree with /metrics.
		cfg.Metrics = env.Obs
	}
	return jobsapi.Handler(cfg)
}

// JobTrace returns the lifecycle trace of one retained job, served as
// GET /v1/jobs/{id}/trace: a live job's from its record, a finished
// job's from its board row.
func (env *Environment) JobTrace(id string) (services.JobTrace, bool) {
	if j, ok := env.pipe.job(id); ok {
		return j.Trace(), true
	}
	s, ok := env.Board.Get(id)
	if !ok {
		return services.JobTrace{}, false
	}
	return traceOf(s), true
}

// Hosts reports every testbed host's snapshot — host-model up/down,
// the failure detector's liveness state and quarantine phase, and the
// resource-performance database's row the scheduler reads — served as
// GET /v1/hosts.
func (env *Environment) Hosts() []services.HostStatus {
	var out []services.HostStatus
	for _, s := range env.TB.Sites {
		for _, h := range s.Hosts {
			hs := services.HostStatus{
				Host:    h.Name,
				Site:    s.Name,
				Up:      h.Reachable() && !h.Failed(),
				Breaker: detect.Closed.String(),
				// The counter the quarantine subscriber feeds, the same cell
				// /metrics exposes, so the two surfaces cannot disagree.
				BreakerOpens: int(env.obsM.breakerOpens.Value(h.Name)),
			}
			if v, ok := env.Detector.Health(h.Name); ok {
				hs.Detector = v.State.String()
				hs.Breaker = v.Phase.String()
				hs.FailureRate, hs.Samples = v.FailureRate, v.Samples
			}
			if v, ok := s.Repo.Resources.View(h.Name); ok {
				hs.Status, hs.Group = string(v.Status), v.Group
				hs.CPULoad, hs.AvailMemBytes = v.CPULoad, v.AvailMem
				hs.Arch, hs.OS, hs.Speed = v.ArchType, v.OSType, v.SpeedFactor
			}
			out = append(out, hs)
		}
	}
	return out
}

// RefreshMonitoring synchronously refreshes every site's resource DB
// from the host models (one monitor round), for callers that do not run
// the daemons. The detector owns status: the round's samples count as
// heartbeats and land in the repository as workload samples only,
// exactly as daemon-delivered ones would, and an unreachable host is
// left for Tick to judge.
func (env *Environment) RefreshMonitoring(now time.Time) error {
	for _, s := range env.TB.Sites {
		batch := make([]repository.HostSample, 0, len(s.Hosts))
		for _, h := range s.Hosts {
			if h.Reachable() {
				env.Detector.Observe(h.Name, now)
				batch = append(batch, repository.HostSample{Host: h.Name, Sample: h.Sample(now)})
			}
		}
		if _, err := s.Repo.Resources.UpdateWorkloads(batch); err != nil {
			return err
		}
	}
	return nil
}
