// Command vdce-server runs one VDCE site: the Site Manager RPC endpoint
// (scheduling, monitoring, and execution-record traffic) plus the
// Application Editor HTTP API, over a fabricated testbed site.
// Submissions flow through the environment's fair-share priority
// admission pipeline: within one owner higher-priority jobs overtake a
// saturated queue (with aging), while across owners the queue drains
// by weighted fair queuing so no single user monopolizes the site; the
// -quota-* flags add per-owner caps (queued submissions are rejected
// with 429 over the cap, in-flight and held-host excess parks). The
// versioned job-control API (GET /v1/jobs with owner/state filters and
// cursor pagination, GET /v1/jobs/{id}, DELETE /v1/jobs/{id} to cancel,
// GET /v1/owners for per-owner weights/quotas/usage, PATCH
// /v1/owners/{owner} for runtime weight pins and quota overrides)
// serves status and control; GET /v1/jobs/{id}/events and GET
// /v1/events stream job transitions as Server-Sent Events so clients
// subscribe instead of polling; -rate-rps adds a per-owner API request
// rate limit (429 with Retry-After over it). With -store-dir the
// control plane is durable: job lifecycle,
// owner admin state, and learned performance history are logged to an
// append-only store, and a restarted server re-admits queued jobs and
// re-dispatches in-flight ones. With -shed-wait the admission queue
// sheds instead of blocking under overload: submissions that cannot get
// a slot in time are rejected with 503 + Retry-After (-shed-deadline,
// on its own or with it, also sheds jobs that cannot meet their
// deadline), /readyz reports not-ready while recovery replay drains or
// the shed rate is high, and per-host circuit breakers (-breakers, on by default) quarantine
// flapping hosts from placement until half-open probes succeed — state
// visible on GET /v1/hosts. GET /metrics exposes the control plane's
// Prometheus-text metrics (admission, scheduler, exec, breakers, WAL,
// events), GET /v1/jobs/{id}/trace returns a job's lifecycle trace,
// -debug-addr serves net/http/pprof on a second listener, and
// -log-level/-log-format enable structured slog output on stderr.
//
//	vdce-server -hosts 8 -http 127.0.0.1:8470 -workers 4 -parallel 8
//	vdce-server -hosts 8 -quota-queued 32 -quota-inflight 4
//
// The heartbeat failure detector runs by default (-detector=false
// disables it), so crashed or partitioned hosts are confirmed dead,
// marked down in the repository, and their running tasks rescheduled
// mid-flight; per-job recovery is visible as reschedules/failed_hosts
// on /v1/jobs. With -chaos a fault-injection scenario plays against the
// live testbed while submissions execute:
//
//	vdce-server -hosts 8 -chaos kill-quarter -chaos-span 30s
//
// Log in with user "user_k", password "vdce".
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"time"

	"vdce"
	"vdce/internal/chaos"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/testbed"
)

// buildLogger turns the -log-level/-log-format flags into a structured
// logger on stderr (keeping stdout for the banner and chaos reports).
// An empty level disables logging entirely (the library's default).
func buildLogger(level, format string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("vdce-server: bad -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("vdce-server: bad -log-format %q (want text|json)", format)
	}
}

// lockedWriter serializes writes from the chaos goroutine and run's
// own prints onto one underlying writer.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		log.Fatal(err)
	}
}

// run starts the server and blocks until ctx is canceled. notify, when
// non-nil, receives the editor's actual listen address once it is
// serving (tests use it with ephemeral ports).
func run(ctx context.Context, args []string, out io.Writer, notify func(addr string)) error {
	fs := flag.NewFlagSet("vdce-server", flag.ContinueOnError)
	hosts := fs.Int("hosts", 8, "hosts in the site")
	groups := fs.Int("groups", 2, "groups in the site")
	httpAddr := fs.String("http", "127.0.0.1:8470", "Application Editor HTTP address")
	seed := fs.Int64("seed", 1, "testbed seed")
	execute := fs.Bool("execute", true, "execute submitted applications through POST /v1/apps/{id}/submit (false = schedule-only: POST /apps/{id}/submit answers with the allocation table)")
	workers := fs.Int("workers", 0, "scheduler workers (0 = default)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = default)")
	parallel := fs.Int("parallel", 0, "max concurrently executing applications (0 = default)")
	detector := fs.Bool("detector", true, "run the heartbeat failure detector")
	quotaQueued := fs.Int("quota-queued", 0, "max queued jobs per owner (0 = unlimited)")
	quotaInflight := fs.Int("quota-inflight", 0, "max scheduling+running jobs per owner (0 = unlimited; excess parks in the queue — pair with -quota-queued so a throttled owner's backlog cannot fill the shared queue)")
	quotaHosts := fs.Int("quota-hosts", 0, "max concurrently held hosts per owner (0 = unlimited; excess parks before execution)")
	rateRPS := fs.Float64("rate-rps", 0, "per-owner API request rate limit in requests/second (0 = unlimited; over-limit requests get 429 with Retry-After)")
	rateBurst := fs.Int("rate-burst", 0, "per-owner API request burst capacity (0 = ceil of -rate-rps)")
	eventBuffer := fs.Int("event-buffer", 0, "job-event replay ring size for SSE Last-Event-ID resume (0 = default 4096)")
	storeDir := fs.String("store-dir", "", "durable control-plane store directory: job lifecycle, owner admin state, and performance history survive restarts (empty = in-memory only)")
	shedWait := fs.Duration("shed-wait", 0, "max time a submission may wait for an admission-queue slot before it is shed with 503 + Retry-After (0 = wait as long as the request lives)")
	shedRetryAfter := fs.Duration("shed-retry-after", 0, "Retry-After hint attached to shed responses (0 = default 1s)")
	shedDeadline := fs.Bool("shed-deadline", false, "shed submissions whose deadline is infeasible even on an idle testbed (lower-bound critical-path estimate)")
	breakers := fs.Bool("breakers", true, "run per-host circuit breakers: hosts with a high windowed failure rate are quarantined from placement until half-open probes succeed")
	retryBudget := fs.Float64("retry-budget", 0, "engine-wide retry budget in retries/second on top of the per-task jittered backoff; over-budget reschedules park until a token frees (0 = unlimited)")
	chaosName := fs.String("chaos", "", "play a fault scenario against the live testbed: kill-quarter|rolling-restart|site-partition|flapping-host|brownout")
	chaosSpan := fs.Duration("chaos-span", 30*time.Second, "duration the -chaos scenario is spread over")
	logLevel := fs.String("log-level", "", "structured log level: debug|info|warn|error (empty = logging off)")
	logFormat := fs.String("log-format", "text", "structured log format: text|json")
	debugAddr := fs.String("debug-addr", "", "debug HTTP address serving net/http/pprof and an unauthenticated /metrics mirror (empty = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{
			Sites: 1, GroupsPerSite: *groups, HostsPerGroup: *hosts, Seed: *seed,
		},
		UseRPC:        true,
		StartDaemons:  true,
		StartDetector: *detector,
		DilationScale: 1,
		LoadThreshold: 0.9,
		Pipeline: vdce.PipelineConfig{
			QueueDepth:        *queue,
			SchedulerWorkers:  *workers,
			MaxConcurrentRuns: *parallel,
			Quota: vdce.QuotaConfig{
				MaxQueuedPerOwner:   *quotaQueued,
				MaxInFlightPerOwner: *quotaInflight,
				MaxHostsPerOwner:    *quotaHosts,
			},
			APIRate: jobsapi.RateLimitConfig{
				RequestsPerSecond: *rateRPS,
				Burst:             *rateBurst,
			},
			EventBuffer: *eventBuffer,
			Shed: vdce.ShedConfig{
				MaxSubmitWait: *shedWait,
				RetryAfter:    *shedRetryAfter,
				CheckDeadline: *shedDeadline,
			},
		},
		StoreDir:      *storeDir,
		StartBreakers: *breakers,
		Retry:         exec.RetryConfig{BudgetPerSecond: *retryBudget},
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer env.Close()
	if *storeDir != "" {
		rep := env.Recovery()
		fmt.Fprintf(out, "store: %s (recovered: %d queued re-admitted, %d in-flight re-dispatched, %d terminal retained)\n",
			*storeDir, rep.QueuedRecovered, rep.InFlightRedispatched, rep.TerminalRetained)
	}

	if *chaosName != "" {
		sc, err := chaos.Named(*chaosName, env.TB, *chaosSpan)
		if err != nil {
			return err
		}
		// The scenario goroutine logs events as they land, concurrently
		// with run's own writes: serialize the writer, and join the
		// goroutine before returning so nothing writes after run exits.
		lw := &lockedWriter{w: out}
		out = lw
		inj := chaos.NewInjector(env.TB, *seed)
		inj.OnApply = func(a chaos.Applied) { fmt.Fprintf(lw, "chaos: %s\n", a) }
		chaosCtx, stopChaos := context.WithCancel(ctx)
		chaosDone := make(chan struct{})
		defer func() { <-chaosDone }() // registered first: joins after the cancel below
		defer stopChaos()
		go func() {
			defer close(chaosDone)
			if _, err := inj.Run(chaosCtx, sc); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(lw, "chaos: scenario aborted: %v\n", err)
			}
		}()
	}

	editorSrv := env.EditorServer(*execute, 0)
	// The job-control API is mounted site-wide, not owner-scoped as an
	// embedded editor's is: this is the server's administrative surface,
	// so any authenticated user may cancel any job.
	editorSrv.Jobs = env.JobsHandler(jobsapi.Config{Authenticate: editorSrv.SessionUser})
	mux := http.NewServeMux()
	mux.Handle("/", editorSrv.Handler())
	// Prometheus text exposition, unauthenticated like the health probes:
	// scrapers are infrastructure, not editor users, and the registry
	// carries no per-job payloads — only aggregate series.
	mux.Handle("GET /metrics", env.Obs.Handler())
	// Health probes, unauthenticated by design: /healthz answers 200
	// while the process is up (liveness); /readyz answers 503 while the
	// server should not take traffic — recovery replay still draining
	// adopted jobs, or the shed rate over the configured threshold.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		ready, reason := env.Ready()
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "not ready", "reason": reason})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
	})

	// The debug listener is a second, separately-bindable surface so
	// pprof and raw metrics can stay off the public address (bind it to
	// localhost) while the main API is exposed.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dlis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("GET /debug/pprof/", pprof.Index)
		dmux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		dmux.Handle("GET /metrics", env.Obs.Handler())
		debugSrv = &http.Server{Handler: dmux}
		go func() { _ = debugSrv.Serve(dlis) }()
		defer debugSrv.Shutdown(context.Background())
		fmt.Fprintf(out, "debug: pprof + metrics on http://%s/debug/pprof/\n", dlis.Addr())
	}

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return err
	}
	httpServer := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpServer.Serve(lis); err != http.ErrServerClosed {
			serveErr <- err
		}
	}()

	addr := lis.Addr().String()
	if notify != nil {
		notify(addr)
	}
	fmt.Fprintf(out, "VDCE server for %s\n", env.TB.Sites[0].Name)
	fmt.Fprintf(out, "  site manager RPC : %s\n", env.Managers[0].Addr())
	fmt.Fprintf(out, "  application editor: http://%s (user_k / vdce)\n", addr)
	fmt.Fprintf(out, "  job-control API   : http://%s/v1/jobs\n", addr)
	fmt.Fprintf(out, "  event stream      : http://%s/v1/events (SSE; per-job: /v1/jobs/{id}/events)\n", addr)
	fmt.Fprintf(out, "  owners API        : http://%s/v1/owners\n", addr)
	fmt.Fprintf(out, "  hosts API         : http://%s/v1/hosts\n", addr)
	fmt.Fprintf(out, "  metrics           : http://%s/metrics (job traces: /v1/jobs/{id}/trace)\n", addr)
	fmt.Fprintf(out, "  health            : http://%s/healthz, /readyz\n", addr)
	fmt.Fprintf(out, "  hosts:\n")
	for _, h := range env.TB.Sites[0].Hosts {
		fmt.Fprintf(out, "    %-28s %s %s speed=%.2f mem=%dMB\n",
			h.Name, h.Arch, h.OS, h.Speed, h.TotalMem>>20)
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "\nshutting down")
	return httpServer.Shutdown(context.Background())
}
