package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/repository"
	"vdce/internal/tasklib"
)

// A run sets the system up several times and reports the median as
// setup_s, so one slow construction does not move it: at least
// minSetupReps times, and — a set-up of a few milliseconds needs more
// samples than one of a hundred — on until setupBudget is spent or
// maxSetupReps is reached.
const (
	minSetupReps = 5
	maxSetupReps = 40
	setupBudget  = 400 * time.Millisecond
)

// moreSetup reports whether another set-up repetition is due.
func moreSetup(done int, spent time.Duration) bool {
	return done < minSetupReps || (spent < setupBudget && done < maxSetupReps)
}

// inprocDriver drives an in-process vdce.Environment.
type inprocDriver struct {
	spec spec
	env  *vdce.Environment
	apps []*afg.Graph
	// refs[i] is graph i's tasklib.RunLocal result: what every job of
	// that graph must output.
	refs  []map[afg.TaskID][]tasklib.Value
	setup float64
	mode  windowMode
	// handoff carries submitted jobs to the collector in submission
	// order. The buffer covers the deepest backlog a healthy window
	// builds (two seconds of the fastest workload); beyond it the
	// generator blocks and the stall shows as generator lateness.
	handoff chan inprocItem
	done    chan struct{}
}

type inprocItem struct {
	rec *jobRec
	job *vdce.Job
}

// newInprocDriver builds the inputs, sets the environment up several
// times (keeping the last) and reports the median set-up time.
func newInprocDriver(cfg runConfig) (*inprocDriver, error) {
	graphs, err := cfg.spec.graphs(cfg.seed)
	if err != nil {
		return nil, err
	}
	d := &inprocDriver{spec: cfg.spec, apps: graphs}
	reg := tasklib.Default()
	for _, g := range graphs {
		ref, err := tasklib.RunLocal(g, reg)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", g.Name, err)
		}
		d.refs = append(d.refs, ref)
	}
	var times []float64
	for began := time.Now(); moreSetup(len(times), time.Since(began)); {
		if d.env != nil {
			d.env.Close()
		}
		t0 := time.Now()
		env, err := newEnv(cfg.spec)
		if err != nil {
			return nil, err
		}
		d.env = env
		if err := d.coldPass(); err != nil {
			d.env.Close()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	d.setup = median(times)
	return d, nil
}

// newEnv constructs the workload's environment and registers its
// owners as global-domain accounts at the accounts site.
func newEnv(sp spec) (*vdce.Environment, error) {
	env, err := vdce.New(sp.envConfig())
	if err != nil {
		return nil, err
	}
	for i := 0; i < sp.owners; i++ {
		if _, err := env.Sites[0].Repo.Users.AddUser(ownerName(i), "vdce", 5, repository.DomainGlobal); err != nil {
			env.Close()
			return nil, err
		}
	}
	return env, nil
}

// coldPass submits each distinct graph once and waits for it: the first
// scheduling round, rank-cache fill and codec warm-up a fresh
// environment pays before it serves at its steady rate. It is part of
// set-up time.
func (d *inprocDriver) coldPass() error {
	ctx := context.Background()
	for i, g := range d.apps {
		job, err := d.env.Submit(ctx, g, vdce.WithOwner(ownerName(i%d.spec.owners)), vdce.WithMaxHosts(2))
		if err != nil {
			return err
		}
		if err := job.Wait(ctx); err != nil {
			return fmt.Errorf("cold pass of %s: %w", g.Name, err)
		}
	}
	return nil
}

func (d *inprocDriver) setupSeconds() float64 { return d.setup }

func (d *inprocDriver) graphs() []*afg.Graph { return d.apps }

func (d *inprocDriver) begin(ctx context.Context, mode windowMode) {
	d.mode = mode
	d.handoff = make(chan inprocItem, 2400)
	d.done = make(chan struct{})
	go d.collect(ctx)
}

// submit hands one job to the pipeline, exactly as a library client
// would, and passes the handle on to the collector.
func (d *inprocDriver) submit(ctx context.Context, rec *jobRec) bool {
	opts := []vdce.SubmitOption{vdce.WithOwner(ownerName(rec.pick.owner)), vdce.WithMaxHosts(2)}
	if d.spec.fairShare {
		opts = append(opts, vdce.WithShareWeight(ownerWeight(rec.pick.owner)), vdce.WithPriority(rec.pick.priority))
	}
	rec.callStart = time.Now()
	job, err := d.env.Submit(ctx, d.apps[rec.pick.graph], opts...)
	rec.callEnd = time.Now()
	if err != nil {
		rec.fail = "submit: " + err.Error()
		rec.terminal = true
		return true
	}
	select {
	case d.handoff <- inprocItem{rec, job}:
	case <-ctx.Done():
		// Window deadline with the collector a full buffer behind: the job
		// stays unsettled and counts as failed.
	}
	return false
}

// collect waits for each job in submission order and records its public
// timings. Completion time is the job's own FinishedAt, so waiting in
// order adds no head-of-line delay to jobs that finish out of order.
func (d *inprocDriver) collect(ctx context.Context) {
	defer close(d.done)
	for it := range d.handoff {
		blocked := false
		select {
		case <-it.job.Done():
		default:
			blocked = true
			select {
			case <-it.job.Done():
			case <-ctx.Done():
				// Window deadline: the job stays in flight and counts as
				// failed.
				continue
			}
		}
		rec := it.rec
		if blocked {
			// Only a completion the collector was already waiting for
			// tells how long the done signal took to reach a client.
			rec.observed = time.Now()
		}
		st := it.job.Status()
		rec.terminal = true
		rec.t = *st.Timings
		rec.reschedules = st.Reschedules
		res := it.job.Result()
		switch {
		case it.job.State() != vdce.JobDone:
			rec.fail = st.State + ": " + st.Error
		case res == nil || !sameOutputs(res.Outputs, d.refs[rec.pick.graph]):
			rec.fail = "outputs differ from the tasklib.RunLocal reference"
		}
		if d.mode.traced && res != nil {
			rec.runs = res.Runs
		}
		if d.mode.tokens != nil {
			d.mode.tokens <- struct{}{}
		}
	}
}

func (d *inprocDriver) finish(ctx context.Context) {
	close(d.handoff)
	<-d.done
}

// verify has nothing left to do: the collector compared each job's
// outputs with the reference as it finished.
func (d *inprocDriver) verify(context.Context, []jobRec) error { return nil }

// scan walks the whole board once with the keyset cursor, 100 rows a
// page, then reads the owner table — what a monitoring client does.
func (d *inprocDriver) scan(ctx context.Context) error {
	var after jobsapi.Cursor
	for {
		page, more := d.env.ListJobsAfter("", "", after, 100)
		if !more || len(page) == 0 {
			break
		}
		after = jobsapi.CursorOf(page[len(page)-1])
	}
	d.env.Owners()
	return nil
}

func (d *inprocDriver) cpuSeconds() (float64, error) { return selfCPUSeconds() }

func (d *inprocDriver) mallocs() (float64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs), nil
}

func (d *inprocDriver) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (d *inprocDriver) resetPeakRSS() error { return resetPeakRSS("self") }

func (d *inprocDriver) counters() (counters, error) {
	return counters{
		completed:     d.env.Obs.Total("vdce_jobs_completed_total"),
		events:        d.env.Obs.Total("vdce_events_published_total"),
		execPeak:      float64(d.env.Engine.PeakConcurrency()),
		rankCacheHits: rankCacheRatio(d.env),
	}, nil
}

func (d *inprocDriver) close() {
	if d.env != nil {
		d.env.Close()
	}
}

// rankCacheRatio pools the ranked-host cache hit ratio over the sites.
func rankCacheRatio(env *vdce.Environment) float64 {
	var hits, misses int64
	for _, s := range env.Sites {
		st := s.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
