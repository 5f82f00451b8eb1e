// Package vdce is the public facade of the Virtual Distributed Computing
// Environment reproduction: it wires the simulated wide-area testbed,
// the per-site repositories and schedulers, the Control Manager daemons,
// the execution engine, and the Application Editor into one Environment
// that can build, schedule, and execute applications end to end.
//
// The Environment is multi-tenant: alongside the one-shot Run helper it
// runs a concurrent submission pipeline. Submit admits an application
// flow graph — configured with functional options (WithOwner,
// WithPriority, WithDeadline, WithHomeSite, WithMaxHosts, WithLabels) —
// into a bounded fair-share priority queue and returns a *Job handle
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
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/breaker"
	"vdce/internal/control"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/editor"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/netmodel"
	"vdce/internal/obs"
	"vdce/internal/protocol"
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
	// K is the scheduler's nearest-neighbor site count (Fig. 2 step 2).
	K int
	// LoadThreshold is the Application Controller's rescheduling trigger;
	// 0 disables it.
	LoadThreshold float64
	// DilationScale emulates heterogeneous host speeds during execution;
	// 0 disables dilation.
	DilationScale float64
	// UseRPC runs a Site Manager RPC server per site and routes remote
	// host selection over real TCP. When false, sites talk in-process.
	UseRPC bool
	// StartDaemons launches Monitor daemons and Group Managers; their
	// cadence is MonitorPeriod.
	StartDaemons  bool
	MonitorPeriod time.Duration
	// StartDetector runs the heartbeat failure-detection service: every
	// monitor report feeds a per-host last-seen clock, silent hosts move
	// through suspect -> confirmed-dead (quorum), confirmed transitions
	// land in the site repositories as one epoch per round, and tasks
	// running on a confirmed-dead host are interrupted and rescheduled
	// mid-run. Echo-detected failures become quorum votes instead of
	// immediate status flips. With StartDaemons the detector's
	// evaluation loop runs on the wall clock against live heartbeats;
	// without daemons no background loop starts (a wall-clock ticker
	// would condemn hosts fed synthetic timestamps) — synchronous
	// drivers feed heartbeats via RefreshMonitoring and call
	// Detector.Tick themselves with their own clock.
	StartDetector bool
	// Detect tunes the failure detector. Zero fields default relative to
	// MonitorPeriod (suspicion after 4 missed periods, quorum 2, one
	// evaluation round per period).
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
	// StartBreakers runs per-host circuit breakers (internal/breaker):
	// watchdog failures and detector suspicions open a flapping host's
	// breaker, quarantining it from placements until half-open probes
	// succeed. Surfaced on GET /v1/hosts and consulted by the
	// rescheduler.
	StartBreakers bool
	// Breaker tunes the circuit breakers when StartBreakers is set; the
	// zero value takes the breaker defaults.
	Breaker breaker.Config
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
	// (admission, scheduler rounds, exec, breakers, WAL, event broker,
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
	Managers []*control.SiteManager // non-nil when UseRPC
	Groups   []*control.GroupManager
	Engine   *exec.Engine
	Console  *services.Console
	// Detector is the failure-detection service (non-nil when
	// Config.StartDetector).
	Detector *detect.Detector
	// Breakers is the per-host circuit-breaker set (non-nil when
	// Config.StartBreakers).
	Breakers *breaker.Set
	// Board tracks every submitted job's lifecycle for monitoring.
	Board *services.JobBoard
	// Store is the durable control-plane log (non-nil when
	// Config.StoreDir was set).
	Store *store.Store
	// Obs is the metrics registry behind GET /metrics: every subsystem's
	// counters, gauges, and histograms. Always non-nil.
	Obs *obs.Registry

	// svc caches each home site's scheduling services; svcMu guards it.
	svcMu  sync.Mutex
	svc    map[int]*siteSvc
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
		svc:      make(map[int]*siteSvc),
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
		// Replay the recovered task-performance history into the site
		// repositories — one epoch per site — so the scheduler's
		// execution-time estimates survive the restart instead of
		// resetting to catalog base times. Records for hosts or tasks
		// this testbed no longer has are dropped and counted.
		perf := st.Recovered().Perf
		recs := make([]protocol.ExecutionRecord, len(perf))
		for i, p := range perf {
			recs[i] = protocol.ExecutionRecord(p)
		}
		env.recordPerf(recs)
	}

	if cfg.UseRPC {
		for _, ls := range env.Sites {
			sm, err := control.StartSiteManager(ls, "127.0.0.1:0")
			if err != nil {
				env.Close()
				return nil, err
			}
			env.Managers = append(env.Managers, sm)
		}
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	env.cancel = cancel
	period := cfg.MonitorPeriod
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	if cfg.StartDetector {
		dcfg := cfg.Detect
		if dcfg.SuspicionTimeout <= 0 {
			// One dropped report must never raise suspicion.
			dcfg.SuspicionTimeout = 4 * period
		}
		if dcfg.TickPeriod <= 0 {
			dcfg.TickPeriod = period
		}
		env.Detector = detect.New(dcfg)
		for _, site := range tb.Sites {
			env.Detector.AddSite(site.Name, site.Repo.Resources)
		}
	}
	if cfg.StartDaemons {
		for _, site := range tb.Sites {
			// One reporter per site: echo notices become detector votes
			// when a detector runs, and the rest lands in the site's
			// resource-performance database.
			reporter := monitorReporter{env.Detector, control.RepoReporter{Repo: site.Repo}}
			for _, gname := range site.GroupNames() {
				gm := control.NewGroupManager(site.Name, gname, site.GroupHosts(gname), reporter, period)
				gm.EchoPeriod = period
				if env.Detector != nil {
					// Heartbeats come off the unfiltered daemon stream:
					// the significant-change filter spares the site link,
					// but a steady host must not look silent.
					det := env.Detector
					gm.Heartbeat = func(host string, s repository.WorkloadSample) {
						det.Observe(host, s.Time)
					}
				}
				env.Groups = append(env.Groups, gm)
				go gm.Run(ctx)
			}
		}
	}

	var reschedOpts []exec.ReschedulerOption
	if cfg.StartBreakers {
		// Breaker transitions feed the shared opens counter and the
		// structured log on top of any caller-installed hook.
		bcfg := cfg.Breaker
		bcfg.OnTransition = breakerHook(env.obsM, env.log, cfg.Breaker.OnTransition)
		env.Breakers = breaker.New(bcfg)
		reschedOpts = append(reschedOpts, exec.WithBreakers(env.Breakers))
	}
	env.Engine = &exec.Engine{
		Reg:           env.Registry,
		TB:            tb,
		LoadThreshold: cfg.LoadThreshold,
		DilationScale: cfg.DilationScale,
		Reschedule:    exec.NewRescheduler(env.Sites, reschedOpts...),
		Retry:         cfg.Retry,
		Breakers:      env.Breakers,
		Console:       env.Console,
		Log:           cfg.Logger,
	}
	env.Engine.Record = func(recs []protocol.ExecutionRecord) {
		env.recordPerf(recs)
		if env.Store == nil || len(recs) == 0 {
			return
		}
		// Measurements feed the durable log too, so a restarted control
		// plane schedules with learned estimates, not catalog defaults.
		perf := make([]store.PerfRecord, len(recs))
		for i, rec := range recs {
			perf[i] = store.PerfRecord(rec)
		}
		env.storeErr("perf-measured", env.Store.PerfMeasured(perf...), "first_task", recs[0].Task)
	}
	if env.Detector != nil {
		// Confirmed transitions drive execution: a death interrupts the
		// host's running tasks (they reschedule with the host excluded),
		// a recovery readmits it. The repository side of the transition
		// is already published when subscribers run.
		env.Detector.Subscribe(func(tr detect.Transition) {
			switch tr.To {
			case detect.Suspect:
				// The suspect signal feeds the circuit breakers: a flapping
				// host keeps re-entering suspicion without ever staying
				// silent long enough to be confirmed dead, and the breaker
				// is exactly the accumulator that notices the pattern.
				if env.Breakers != nil {
					env.Breakers.ReportFailure(tr.Host)
				}
			case detect.Dead:
				env.Engine.MarkHostDead(tr.Host)
				if env.Breakers != nil {
					env.Breakers.ReportFailure(tr.Host)
				}
			case detect.Recovered:
				env.Engine.MarkHostAlive(tr.Host)
			}
		})
		if cfg.StartDaemons {
			// The wall-clock evaluation loop only makes sense against
			// live daemon heartbeats; synchronous drivers Tick the
			// detector on their own clock instead.
			go env.Detector.Run(ctx)
		}
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

// recordPerf is the task-performance write-back of one run (or of the
// boot replay): each site's database takes the measurements made on its
// hosts as one epoch. What no site could apply — an unknown task, a
// negative elapsed time, a host no site owns — is counted, not lost
// silently.
func (env *Environment) recordPerf(recs []protocol.ExecutionRecord) {
	dropped := len(recs)
	for _, site := range env.Sites {
		dropped -= site.Repo.RecordExecutions(recs)
	}
	if dropped > 0 {
		env.obsM.perfDropped.Add(float64(dropped))
		env.log.Debug("task-performance measurements dropped", "dropped", dropped, "of", len(recs))
	}
}

// monitorReporter is the one path a Group Manager's reports take into
// a site: with a failure detector running, echo timeouts are votes and
// echo recoveries heartbeats — the detector, not the notice, flips a
// host's status — and whatever is left lands in the site's repository.
type monitorReporter struct {
	det *detect.Detector // nil without a failure detector
	control.RepoReporter
}

func (r monitorReporter) ApplyFailure(n protocol.FailureNotice) error {
	if r.det != nil {
		r.det.ReportFailure(n.Host, n.Detected)
		return nil
	}
	return r.RepoReporter.ApplyFailure(n)
}

func (r monitorReporter) ApplyRecovery(n protocol.RecoveryNotice) error {
	if r.det != nil {
		r.det.Observe(n.Host, n.Detected)
		return nil
	}
	return r.RepoReporter.ApplyRecovery(n)
}

// Close stops the submission pipeline, daemons, RPC servers, and client
// connections. Every job not yet terminal fails with ErrPipelineClosed,
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
	// The pipeline has settled every job; what is left of the data plane
	// is the Data Manager's listener, streams and readers.
	if env.Engine != nil {
		env.Engine.Close()
	}
	env.svcMu.Lock()
	for _, s := range env.svc {
		s.close()
	}
	clear(env.svc)
	env.svcMu.Unlock()
	for _, sm := range env.Managers {
		sm.Close()
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

// siteSvc is one home site's resolved scheduling services.
type siteSvc struct {
	local   core.SiteService
	remotes []core.SiteService
	dialed  []*control.RemoteSite // the RPC clients among remotes
}

// close releases the RPC clients.
func (s *siteSvc) close() {
	for _, rc := range s.dialed {
		rc.Close()
	}
}

// siteServices resolves site index i's scheduling services — its local
// site plus every other site as a remote, dialed over RPC when the
// environment runs Site Managers — once per home site: the pipeline's
// rounds, SchedulerAt, Schedule and Run share the result. A failed dial
// is not cached, so it only affects rounds made while it persists. The
// clients are released on Close.
func (env *Environment) siteServices(i int) (*siteSvc, error) {
	if i < 0 || i >= len(env.Sites) {
		return nil, fmt.Errorf("vdce: no site %d", i)
	}
	env.svcMu.Lock()
	defer env.svcMu.Unlock()
	if s, ok := env.svc[i]; ok {
		return s, nil
	}
	s := &siteSvc{local: env.Sites[i]}
	for j, site := range env.Sites {
		if j == i {
			continue
		}
		if len(env.Managers) != len(env.Sites) {
			s.remotes = append(s.remotes, site)
			continue
		}
		rc, err := control.DialSite(site.SiteName(), env.Managers[j].Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.dialed = append(s.dialed, rc)
		s.remotes = append(s.remotes, rc)
	}
	env.svc[i] = s
	return s, nil
}

// SchedulerAt returns the Application Scheduler of site index i: its
// local site plus every other site as a remote (over RPC when the
// environment runs Site Managers).
func (env *Environment) SchedulerAt(i int, k int) (*core.Scheduler, error) {
	svc, err := env.siteServices(i)
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(svc.local, svc.remotes, env.Net, k), nil
}

// CostFunc derives the level-computation cost function for g from site
// 0's task-performance database (every site holds the same catalog).
func (env *Environment) CostFunc(g *afg.Graph) (afg.CostFunc, error) {
	if len(env.Sites) == 0 {
		return nil, errors.New("vdce: no sites")
	}
	oracle := env.Sites[0].Oracle
	costs := make([]float64, len(g.Tasks))
	for i, task := range g.Tasks {
		d, err := oracle.BaseTimeFor(task.Name)
		if err != nil {
			return nil, err
		}
		costs[i] = d.Seconds()
	}
	return func(id afg.TaskID) float64 { return costs[id] }, nil
}

// Schedule runs the distributed scheduler from site 0 with the
// environment's K.
func (env *Environment) Schedule(g *afg.Graph, k int) (*core.AllocationTable, error) {
	sched, err := env.SchedulerAt(0, k)
	if err != nil {
		return nil, err
	}
	cost, err := env.CostFunc(g)
	if err != nil {
		return nil, err
	}
	return sched.Schedule(g, cost)
}

// Run schedules and executes g, returning both artifacts.
func (env *Environment) Run(ctx context.Context, g *afg.Graph, k int) (*core.AllocationTable, *exec.Result, error) {
	table, err := env.Schedule(g, k)
	if err != nil {
		return nil, nil, err
	}
	res, err := env.Engine.Execute(ctx, g, table)
	if err != nil {
		return table, nil, err
	}
	return table, res, nil
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
// accounts. The submitting user's access domain bounds how many
// neighbor sites the scheduler may use.
//
// When execute is true, submissions run through the versioned
// job-control API alone: POST /v1/apps/{id}/submit enqueues into the
// concurrent submission pipeline with per-job priority, deadline, and
// max-hosts, and /v1/jobs (mounted owner-scoped, so users cancel only
// their own jobs) serves status, events and cancellation. When it is
// false the editor is schedule-only: POST /apps/{id}/submit answers
// with the allocation table and nothing executes.
func (env *Environment) EditorServer(execute bool, k int) *editor.Server {
	var schedule editor.Submitter
	if !execute {
		schedule = func(_ context.Context, owner string, g *afg.Graph) (any, error) {
			return env.Schedule(g, env.ClampK(owner, k))
		}
	}
	srv := editor.NewServer(env.Sites[0].Repo.Users, env.Registry, schedule)
	if execute {
		srv.SubmitJob = func(ctx context.Context, owner string, g *afg.Graph, o editor.JobOptions) (services.JobStatus, error) {
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
		}
		srv.Jobs = env.JobsHandler(jobsapi.Config{
			Authenticate: srv.SessionUser,
			OwnerScoped:  true,
		})
	}
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

// Hosts reports every testbed host's health snapshot — host-model
// up/down, failure-detector state (when a detector runs), and
// circuit-breaker state (when breakers run) — served as GET /v1/hosts.
func (env *Environment) Hosts() []services.HostStatus {
	var brk map[string]breaker.HostStatus
	if env.Breakers != nil {
		snap := env.Breakers.Snapshot()
		brk = make(map[string]breaker.HostStatus, len(snap))
		for _, hs := range snap {
			brk[hs.Host] = hs
		}
	}
	var out []services.HostStatus
	for _, s := range env.TB.Sites {
		for _, h := range s.Hosts {
			hs := services.HostStatus{
				Host:    h.Name,
				Site:    s.Name,
				Up:      h.Reachable() && !h.Failed(),
				Breaker: breaker.Closed.String(),
			}
			if env.Detector != nil {
				if st, ok := env.Detector.State(h.Name); ok {
					hs.Detector = st.String()
				}
			}
			if b, ok := brk[h.Name]; ok {
				hs.Breaker = b.State
				hs.FailureRate = b.FailureRate
				hs.Samples = b.Samples
				// Opens come from the shared registry counter (fed by the
				// OnTransition hook), the same cell /metrics exposes, so the
				// two surfaces cannot disagree.
				hs.BreakerOpens = int(env.obsM.breakerOpens.Value(h.Name))
			}
			out = append(out, hs)
		}
	}
	return out
}

// RefreshMonitoring synchronously refreshes every site's resource DB
// from the host models (one monitor round), for callers that do not run
// the daemons. When the failure detector runs, the round's samples also
// count as heartbeats, exactly as daemon-delivered ones would.
func (env *Environment) RefreshMonitoring(now time.Time) error {
	if env.Detector != nil {
		for _, h := range env.TB.AllHosts() {
			if h.Reachable() {
				env.Detector.Observe(h.Name, now)
			}
		}
	}
	return env.TB.RefreshRepos(now)
}
