package vdce

// Retained results bounded in bytes (ISSUE 21): the pipeline's output
// ledger is the one owner of "which finished jobs still hold their
// outputs" — count retention and byte retention both go through it.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"

	"vdce/internal/afg"
	"vdce/internal/exec"
	"vdce/internal/services"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// ledgerRing walks the output ledger oldest first; an entry whose
// handle is gone, or names another job, reads "".
func ledgerRing(t *testing.T, p *pipeline) (ids []string, sum int64) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range p.outOrder {
		e, ok := p.outs[id]
		if !ok {
			continue
		}
		if h := e.h.Value(); h == nil || h.ID != id {
			id = ""
		}
		ids = append(ids, id)
		sum += e.bytes
	}
	if len(ids) != len(p.outs) {
		t.Fatalf("output ledger: %d IDs in completion order, %d entries", len(ids), len(p.outs))
	}
	return ids, sum
}

func retainedBytes(p *pipeline) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outBytes
}

func setOutputBudget(p *pipeline, budget int64) {
	p.mu.Lock()
	p.outBudget = budget
	p.mu.Unlock()
}

// TestOutputLedgerMatchesModel drives a fixed-seed stream of completions
// and count evictions through retainOutputs and trimRetained and checks
// the ledger against a model after every step: the total is the sum of
// the holders' sizes, it fits the budget unless exactly one holder is
// left, the holders are a suffix of the retained jobs in completion
// order, exactly the non-holders read as evicted, and evicting every
// row empties the ledger.
func TestOutputLedgerMatchesModel(t *testing.T) {
	const budget = 1 << 20
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2101}})
	p := env.pipe
	setOutputBudget(p, budget)
	g := spinJobGraph("model", 1)
	base := time.Now()
	rng := rand.New(rand.NewSource(21))
	// The model's jobs are settled from the start, so Close never waits
	// for them.
	settled := make(chan struct{})
	close(settled)

	type entry struct {
		job    *Job
		size   int64
		holder bool
	}
	var retained []*entry // completion order
	var total int64
	drops := 0
	holders := func() (ids []string) {
		for _, e := range retained {
			if e.holder {
				ids = append(ids, e.job.ID)
			}
		}
		return ids
	}
	check := func(step int) {
		t.Helper()
		want := holders()
		ring, sum := ledgerRing(t, p)
		if !slices.Equal(ring, want) {
			t.Fatalf("step %d: ledger holds %v, model %v", step, ring, want)
		}
		if got := retainedBytes(p); got != total || sum != total {
			t.Fatalf("step %d: ledger total %d, sum of its links %d, model %d", step, got, sum, total)
		}
		if total > budget && len(want) != 1 {
			t.Fatalf("step %d: %d bytes over the %d budget with %d holders", step, total, budget, len(want))
		}
		seenHolder := false
		for _, e := range retained {
			if seenHolder && !e.holder {
				t.Fatalf("step %d: %s lost its outputs before an older job did", step, e.job.ID)
			}
			seenHolder = seenHolder || e.holder
			res := e.job.Result()
			if res.OutputsEvicted == e.holder || (res.Outputs != nil) != (e.holder && e.size > 0) {
				t.Fatalf("step %d: %s holder=%v reads evicted=%v outputs=%v",
					step, e.job.ID, e.holder, res.OutputsEvicted, res.Outputs != nil)
			}
			if res.AppID != e.job.ID || len(res.Runs) != 1 {
				t.Fatalf("step %d: %s lost more than its outputs: %+v", step, e.job.ID, res)
			}
		}
		if got := env.obsM.outputsEvicted.Value(); got != float64(drops) {
			t.Fatalf("step %d: vdce_outputs_evicted_total = %v, model dropped %d", step, got, drops)
		}
	}
	evict := func(keep int) {
		p.mu.Lock()
		p.cfg.MaxRetainedJobs = keep
		gone := p.trimRetained()
		p.mu.Unlock()
		for _, id := range gone {
			i := slices.IndexFunc(retained, func(e *entry) bool { return e.job.ID == id })
			if i < 0 {
				t.Fatalf("board evicted %s, which the model does not retain", id)
			}
			if retained[i].holder {
				total -= retained[i].size
			}
			retained = slices.Delete(retained, i, i+1)
		}
	}

	for step := 0; step < 1500; step++ {
		if rng.Intn(4) == 0 {
			evict(rng.Intn(24))
			check(step)
			continue
		}
		// Sizes: mostly a few hundred KiB, some empty, a few larger than
		// the whole budget.
		var size int64
		switch r := rng.Intn(20); {
		case r == 0:
			size = budget + int64(rng.Intn(budget))
		case r > 2:
			size = int64(rng.Intn(400 << 10))
		}
		res := &exec.Result{AppID: fmt.Sprintf("m-%d", step), Runs: make([]exec.TaskRun, 1)}
		if size > 0 {
			res.Outputs = map[afg.TaskID][]tasklib.Value{0: {make([]byte, size)}}
		}
		// Submission order is shuffled against completion order, so count
		// retention takes jobs out of the middle of the ledger.
		at := base.Add(time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
		j := &Job{jobRecord: &jobRecord{
			ID: res.AppID, Graph: g, pipe: p, state: JobDone,
			timings: services.JobTimings{SubmittedAt: at, FinishedAt: at},
			done:    settled,
		}}
		j.handle = weak.Make(j)
		j.result.Store(res)
		p.retainOutputs(j.ID, j.handle, res)
		env.Board.Update(j.Status())
		e := &entry{job: j, size: size, holder: true}
		retained = append(retained, e)
		total += size
		for _, old := range retained {
			if total <= budget || old == e {
				break
			}
			if old.holder {
				old.holder = false
				total -= old.size
				drops++
			}
		}
		check(step)
	}
	if drops == 0 || len(retained) == 0 {
		t.Fatalf("the stream never crossed the budget (%d drops, %d retained)", drops, len(retained))
	}
	evict(0)
	check(-1)
	if ring, _ := ledgerRing(t, p); len(ring) != 0 || retainedBytes(p) != 0 || len(p.records()) != 0 {
		t.Fatalf("after evicting every row: ledger %v, %d bytes, %d records", ring, retainedBytes(p), len(p.records()))
	}
}

// TestOutputLedgerStaysBoundedUnderCountRetention: results that never
// reach the byte budget leave the ledger only by count retention, which
// finds them by ID. The completion order it keeps beside them must not
// grow with the jobs that have left: 5,000 empty results at
// MaxRetainedJobs 8 leave at most 8 entries and 2*8+64 IDs.
func TestOutputLedgerStaysBoundedUnderCountRetention(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2102}})
	p := env.pipe
	settled := make(chan struct{})
	close(settled)
	at := time.Now()
	var held []*Job
	for i := range 5000 {
		res := &exec.Result{AppID: fmt.Sprintf("c-%05d", i), Runs: make([]exec.TaskRun, 1)}
		at = at.Add(time.Microsecond)
		j := &Job{jobRecord: &jobRecord{
			ID: res.AppID, Graph: spinJobGraph("churn", 1), pipe: p, state: JobDone,
			timings: services.JobTimings{SubmittedAt: at, FinishedAt: at},
			done:    settled,
		}}
		j.handle = weak.Make(j)
		j.result.Store(res)
		held = append(held, j)
		p.retainOutputs(j.ID, j.handle, res)
		env.Board.Update(j.Status())
		p.mu.Lock()
		p.cfg.MaxRetainedJobs = 8
		p.trimRetained()
		entries, order := len(p.outs), len(p.outOrder)
		p.mu.Unlock()
		if entries > 8 || order > 2*8+64 {
			t.Fatalf("after %d results: %d ledger entries, %d IDs in completion order", i+1, entries, order)
		}
	}
	if ring, _ := ledgerRing(t, p); len(ring) != 8 || ring[7] != "c-04999" {
		t.Fatalf("ledger holds %v, want the last 8 results", ring)
	}
	runtime.KeepAlive(held)
}

// lesGraph builds the Linear Equation Solver every host may run.
func lesGraph(t testing.TB, n int) *afg.Graph {
	t.Helper()
	g, err := tasklib.BuildLinearEquationSolver(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	clearMachineTypes(g)
	return g
}

// TestRetainedOutputsAreBoundedInBytes runs real LES jobs past a lowered
// budget: the newest result still equals the tasklib.RunLocal
// reference, the oldest reads OutputsEvicted with everything else — and
// its status and trace — untouched, a result fetched before the drop
// keeps its outputs, and the heap the finished jobs pin stays under the
// budget plus slack.
func TestRetainedOutputsAreBoundedInBytes(t *testing.T) {
	const (
		budget = 1 << 20
		jobs   = 80      // x ~130 KB of outputs each: ten budgets' worth
		slack  = 2 << 20 // what 80 finished jobs pin besides outputs; ~0.5 MB measured
	)
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2102}})
	setOutputBudget(env.pipe, budget)
	g := lesGraph(t, 64)
	want, err := tasklib.RunLocal(g, tasklib.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() *Job {
		t.Helper()
		job, err := env.Submit(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return job
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}

	first := run()
	early := first.Result()
	status, trace := first.Status(), first.Trace()
	one := retainedBytes(env.pipe)
	if one < 100<<10 || one > budget/4 {
		t.Fatalf("one LES-64 result sizes as %d bytes; the test assumes ~130 KB", one)
	}
	before := heap()
	handles := []*Job{first}
	for i := 1; i < jobs; i++ {
		handles = append(handles, run())
	}
	if grew := heap() - before; grew > budget+slack {
		t.Fatalf("heap grew %d bytes over %d finished jobs, budget %d + slack %d", grew, jobs, budget, slack)
	}
	if got := retainedBytes(env.pipe); got > budget || got < budget-one {
		t.Fatalf("ledger holds %d bytes, want within one result (%d) under the %d budget", got, one, budget)
	}
	if got, wantDrops := env.obsM.outputsEvicted.Value(), float64(jobs)-float64(budget/one); got != wantDrops {
		t.Fatalf("vdce_outputs_evicted_total = %v, want %v", got, wantDrops)
	}

	newest := handles[jobs-1].Result()
	if newest.OutputsEvicted || !reflect.DeepEqual(newest.Outputs, want) {
		t.Fatalf("newest result: evicted=%v, outputs match the reference: %v",
			newest.OutputsEvicted, reflect.DeepEqual(newest.Outputs, want))
	}
	old := first.Result()
	if !old.OutputsEvicted || old.Outputs != nil {
		t.Fatalf("oldest result still holds outputs (evicted=%v)", old.OutputsEvicted)
	}
	if old == early {
		t.Fatal("the drop mutated the result a client already held instead of replacing it")
	}
	if !reflect.DeepEqual(early.Outputs, want) || early.OutputsEvicted {
		t.Fatal("a result fetched before the drop lost its outputs")
	}
	if old.AppID != early.AppID || !reflect.DeepEqual(old.Runs, early.Runs) || old.Table != early.Table ||
		old.Makespan != early.Makespan || len(old.Runs) != len(g.Tasks) || old.Makespan <= 0 {
		t.Fatalf("the drop touched more than the outputs:\n%+v\n%+v", old, early)
	}
	if !reflect.DeepEqual(first.Status(), status) || !reflect.DeepEqual(first.Trace(), trace) {
		t.Fatal("the drop changed the job's status or trace")
	}
	if row, ok := env.Job(first.ID); !ok || !reflect.DeepEqual(row, status) {
		t.Fatalf("the drop changed the board row: %+v (found %v)", row, ok)
	}
}

// TestRetainedResultsRaceFree has eight submitters completing jobs past
// a small budget while a reader loops Result() over every handle so
// far: under -race, swapping a result for its output-less copy must not
// race with a client reading it, and a result is always one or the
// other — whole, or flagged with nil outputs.
func TestRetainedResultsRaceFree(t *testing.T) {
	const submitters, perSubmitter = 8, 6
	const budget = 96 << 10 // about three LES-32 results
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 2103}})
	setOutputBudget(env.pipe, budget)
	g := lesGraph(t, 32)
	ctx := context.Background()

	var mu sync.Mutex
	var handles []*Job
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			seen := slices.Clone(handles)
			mu.Unlock()
			for _, j := range seen {
				res := j.Result()
				if res == nil {
					continue // still in flight
				}
				if res.OutputsEvicted != (res.Outputs == nil) || len(res.Runs) != len(g.Tasks) {
					t.Errorf("%s: evicted=%v with %d output sets and %d runs",
						j.ID, res.OutputsEvicted, len(res.Outputs), len(res.Runs))
					return
				}
				for _, outs := range res.Outputs {
					for _, v := range outs {
						_ = tasklib.ValueSize(v)
					}
				}
			}
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				job, err := env.Submit(ctx, g)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				handles = append(handles, job)
				mu.Unlock()
				if err := job.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if t.Failed() {
		return
	}
	if got := env.obsM.outputsEvicted.Value(); got < submitters*perSubmitter/2 {
		t.Fatalf("only %v results dropped over %d jobs: the budget never bit", got, submitters*perSubmitter)
	}
	ring, sum := ledgerRing(t, env.pipe)
	if total := retainedBytes(env.pipe); total != sum || (total > budget && len(ring) != 1) {
		t.Fatalf("ledger after the wave: %d holders, total %d, links sum to %d", len(ring), total, sum)
	}
}

// TestResultFollowsTheHandle: a result lives on the caller's handle and
// nowhere else. A held handle reads its outputs across a GC; a dropped
// one takes its result with it, while the job's board row keeps its
// state and trace.
func TestResultFollowsTheHandle(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2801}})
	g := lesGraph(t, 32)
	want, err := tasklib.RunLocal(g, tasklib.Default())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() *Job {
		t.Helper()
		job, err := env.Submit(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return job
	}
	held := run()
	// Only weak pointers leave this call: the handle is dropped.
	id, handle, result := func() (string, weak.Pointer[Job], weak.Pointer[exec.Result]) {
		job := run()
		return job.ID, weak.Make(job), weak.Make(job.Result())
	}()
	runtime.GC()

	if res := held.Result(); res == nil || res.OutputsEvicted || !reflect.DeepEqual(res.Outputs, want) {
		t.Fatalf("a held handle lost its outputs across a GC: %+v", res)
	}
	if handle.Value() != nil {
		t.Fatal("the dropped handle survived a GC")
	}
	if result.Value() != nil {
		t.Fatal("the dropped handle's result survived a GC: the pipeline still holds it")
	}
	s, ok := env.Job(id)
	tr, traced := env.JobTrace(id)
	if !ok || !traced || s.State != services.JobStateDone || s.Timings.RunSeconds <= 0 || len(tr.Events) != 6 {
		t.Fatalf("%s lost its row or trace with its handle: %+v (found %v), %+v (found %v)", id, s, ok, tr, traced)
	}
	runtime.KeepAlive(held)
}

// TestHTTPSubmissionsRetainNoOutputs: the editor's HTTP submit route keeps
// only the job's status, so once it has answered no handle is left and a
// result is garbage the moment its job ends. 64 LES-64 jobs, ~130 KB of
// outputs each, leave vdce_retained_output_bytes at 0; when the pipeline
// held results beside the handle it read ~8 MB here.
func TestHTTPSubmissionsRetainNoOutputs(t *testing.T) {
	const jobs = 64
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2802},
		Pipeline: PipelineConfig{QueueDepth: jobs + 1, SchedulerWorkers: 1, MaxConcurrentRuns: 1},
	})
	ctx := context.Background()
	// A long Spin holds the one run slot, so every submission is still
	// in flight when the GC below collects the handles the route dropped.
	holder, err := env.Submit(ctx, spinJobGraph("holder", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, holder, JobRunning)
	ts := httptest.NewServer(env.EditorServer(1).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	app := c.importGraph(t, lesGraph(t, 64))
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = c.submitV1(t, app, nil)
	}
	runtime.GC()
	holder.Cancel()
	if err := env.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if s, ok := env.Job(id); !ok || s.State != services.JobStateDone {
			t.Fatalf("%s: %+v (found %v), want done", id, s, ok)
		}
	}
	if got := env.Obs.Total("vdce_retained_output_bytes"); got != 0 {
		t.Fatalf("vdce_retained_output_bytes = %v after %d HTTP submissions, want 0", got, jobs)
	}
}

// TestRetainedJobFootprint: a finished job is its board row alone — one
// allocation holding the last status, with what its trace renders from,
// and its own sealed timings block — with nothing of its run, no record
// and no result once its handle is dropped. 2,048 single-task jobs at
// MaxRetainedJobs 2,048; the heap they leave after a GC, divided by the
// jobs, must stay under the budget: 895 B measured plus 10 %. One copy
// of the history brought it from 3,115 B to 2,189 B; leaving the result
// to the handle, to 1,600 B; leaving the record, to 895 B
// (EXPERIMENTS.md). The output ledger keyed by job ID (a map entry and an
// order slot for every finished job that had outputs, kept until count
// eviction whether or not its handle still lives) brought it to 963–972
// B: with no ledger entry the same run reads 865–870 B. The budget stayed.
func TestRetainedJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what the heap holds")
	}
	const jobs, burst, budget = 2048, 64, 985
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2501},
		Pipeline: PipelineConfig{MaxRetainedJobs: jobs},
	})
	g := spinJobGraph("footprint", 0)
	ctx := context.Background()
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	wave := make([]*Job, 0, burst)
	before := heap()
	for n := 0; n < jobs; n += burst {
		wave = wave[:0]
		for range burst {
			job, err := env.Submit(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			wave = append(wave, job)
		}
		for _, job := range wave {
			if err := job.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	clear(wave)
	grew := heap() - before
	per := grew / jobs
	t.Logf("%d retained jobs: heap +%d B, %d B a job (budget %d)", jobs, grew, per, budget)
	if n := env.Board.CountFiltered("", ""); n != jobs {
		t.Fatalf("board retains %d rows, want %d", n, jobs)
	}
	if per > budget {
		t.Fatalf("a retained job costs %d B of heap, over the %d B budget", per, budget)
	}
}
