package vdce

// A finished job is one board row: once a job ends and no caller holds
// its handle, the pipeline keeps nothing of it but the row, and the
// row serves the job's status and trace exactly as the record did.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
	"weak"

	"vdce/internal/afg"
	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

var (
	traceInstant = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[^"]*"`)
	traceSeconds = regexp.MustCompile(`(_seconds":)[-+.e0-9]+`)
)

// traceShape rewrites a trace body so one run's compares with
// another's: each instant becomes T<k>, k its rank among the body's
// distinct instants, and each duration S.
func traceShape(t *testing.T, body []byte) string {
	t.Helper()
	var at []time.Time
	for _, m := range traceInstant.FindAll(body, -1) {
		ts, err := time.Parse(time.RFC3339Nano, string(m[1:len(m)-1]))
		if err != nil {
			t.Fatal(err)
		}
		at = append(at, ts)
	}
	slices.SortFunc(at, func(a, b time.Time) int { return a.Compare(b) })
	at = slices.CompactFunc(at, time.Time.Equal)
	shape := traceInstant.ReplaceAllFunc(body, func(m []byte) []byte {
		ts, _ := time.Parse(time.RFC3339Nano, string(m[1:len(m)-1]))
		k, _ := slices.BinarySearchFunc(at, ts, func(a, b time.Time) int { return a.Compare(b) })
		return []byte(`"T` + strconv.Itoa(k) + `"`)
	})
	return string(bytes.TrimSpace(traceSeconds.ReplaceAll(shape, []byte("${1}S"))))
}

// goldenTraces are the /v1 trace bodies of finished jobs whose handles
// are gone, in traceShape's form, as the tree that kept every finished
// job's record served them.
var goldenTraces = map[string]string{
	"done":        `{"id":"job-1","owner":"bob","state":"done","events":[{"at":"T0","event":"submitted"},{"at":"T1","event":"admitted"},{"at":"T2","event":"scheduled"},{"at":"T3","event":"dispatched"},{"at":"T4","event":"running"},{"at":"T5","event":"done"}],"timings":{"submitted_at":"T0","admitted_at":"T1","scheduled_at":"T2","dispatched_at":"T3","running_at":"T4","finished_at":"T5","submit_wait_seconds":S,"queue_wait_seconds":S,"dispatch_wait_seconds":S,"run_seconds":S,"total_seconds":S}}`,
	"failed":      `{"id":"job-2","owner":"bob","state":"failed","events":[{"at":"T0","event":"submitted"},{"at":"T1","event":"admitted"},{"at":"T2","event":"failed","detail":"repository: unknown task: No_Such_Task"}],"timings":{"submitted_at":"T0","admitted_at":"T1","finished_at":"T2","submit_wait_seconds":S,"total_seconds":S}}`,
	"canceled":    `{"id":"job-5","owner":"bob","state":"canceled","events":[{"at":"T0","event":"submitted"},{"at":"T1","event":"admitted"},{"at":"T2","event":"canceled","detail":"vdce: job canceled"}],"timings":{"submitted_at":"T0","admitted_at":"T1","finished_at":"T2","submit_wait_seconds":S,"total_seconds":S}}`,
	"rescheduled": `{"id":"job-3","owner":"bob","state":"done","events":[{"at":"T0","event":"submitted"},{"at":"T1","event":"admitted"},{"at":"T2","event":"scheduled"},{"at":"T3","event":"dispatched"},{"at":"T4","event":"running"},{"at":"T5","event":"rescheduled","detail":"h-moved"},{"at":"T6","event":"host-failure","detail":"h-lost"},{"at":"T7","event":"done"}],"timings":{"submitted_at":"T0","admitted_at":"T1","scheduled_at":"T2","dispatched_at":"T3","running_at":"T4","finished_at":"T7","submit_wait_seconds":S,"queue_wait_seconds":S,"dispatch_wait_seconds":S,"run_seconds":S,"total_seconds":S}}`,
	"restored":    `{"id":"job-1","owner":"bob","state":"done","events":[{"at":"T0","event":"submitted"},{"at":"T2","event":"done"}],"timings":{"submitted_at":"T0","running_at":"T1","finished_at":"T2","run_seconds":S,"total_seconds":S}}`,
}

// TestFinishedTraceGolden: the trace route answers for a finished job
// whose handle is gone — done, failed with an error, canceled while
// queued, rescheduled with a host failure, and restored terminal after
// a restart — byte for byte what the job's own Trace read while a handle
// still held it, and in the shape the goldens pin.
func TestFinishedTraceGolden(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	submit := func(g *afg.Graph) *Job {
		t.Helper()
		j, err := env.Submit(ctx, g, WithOwner("bob"))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ids, held := map[string]string{}, map[string][]byte{}
	// finish waits for a job and keeps its ID and the trace its handle
	// reads; the handle goes out of scope with the caller's.
	finish := func(name string, j *Job) {
		<-j.Done()
		ids[name], held[name] = j.ID, mustJSON(t, j.Trace())
	}
	finish("done", submit(spinJobGraph("done", 1)))
	unknown := spinJobGraph("failed", 1)
	unknown.Tasks[0].Name = "No_Such_Task"
	finish("failed", submit(unknown))
	// One worker, one run slot: with the console suspended, the first job
	// holds the slot at the gate, the second holds the worker waiting for
	// the slot, and the third stays queued until it is canceled.
	env.Console.Suspend()
	func() {
		running := submit(spinJobGraph("rescheduled", 1))
		waitState(t, running, JobRunning)
		waiting := submit(spinJobGraph("waiting", 1))
		waitState(t, waiting, JobScheduling)
		queued := submit(spinJobGraph("canceled", 1))
		if s := queued.State(); s != JobQueued {
			t.Fatalf("the third job is %v, not queued", s)
		}
		queued.Cancel()
		finish("canceled", queued)
		running.execEvent(exec.Event{Type: exec.EventRescheduled, Host: "h-moved"})
		running.execEvent(exec.Event{Type: exec.EventHostFailure, Host: "h-lost"})
		env.Console.Resume()
		finish("rescheduled", running)
		<-waiting.Done()
	}()
	runtime.GC()

	admin := func(*http.Request) (string, bool) { return "admin", true }
	check := func(env *Environment, name, id string, want []byte) {
		t.Helper()
		body := serveTrace(t, env.JobsHandler(jobsapi.Config{Authenticate: admin}), id)
		if want != nil && !bytes.Equal(bytes.TrimSpace(body), want) {
			t.Errorf("%s (%s): the route serves\n%s\nthe handle read\n%s", name, id, body, want)
		}
		shape := traceShape(t, body)
		if golden, ok := goldenTraces[name]; !ok || shape != golden {
			t.Errorf("%s (%s): trace shape\n%s\nwant\n%s", name, id, shape, golden)
		}
	}
	for name, id := range ids {
		check(env, name, id, held[name])
	}
	env.Close()

	env2, err := New(durableCfg(dir))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	check(env2, "restored", ids["done"], nil)
}

// TestFinishedJobKeepsNoRecord: once a job ends with no handle left, the
// pipeline lets go of its record — a weak pointer to it reads nil after
// a GC — while its row, and with it its status and trace, stays.
func TestFinishedJobKeepsNoRecord(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2901}})
	ctx := context.Background()
	id, rec, done := func() (string, weak.Pointer[jobRecord], <-chan struct{}) {
		j, err := env.Submit(ctx, spinJobGraph("gone", 1))
		if err != nil {
			t.Fatal(err)
		}
		return j.ID, weak.Make(j.jobRecord), j.Done()
	}()
	<-done
	// The goroutine that ended the job may still be unwinding.
	for i := 0; i < 100 && rec.Value() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if rec.Value() != nil {
		t.Fatal("the pipeline still holds the record of a finished job whose handle is gone")
	}
	if s, ok := env.Job(id); !ok || s.State != services.JobStateDone || s.Timings == nil || s.Timings.RunSeconds <= 0 {
		t.Fatalf("row of %s: %+v (found %v)", id, s, ok)
	}
	if tr, ok := env.JobTrace(id); !ok || len(tr.Events) != 6 || tr.State != services.JobStateDone {
		t.Fatalf("trace of %s: %+v (found %v)", id, tr, ok)
	}
}

// TestCancelAndDrainOnFinishedJobs: canceling a retained finished job
// changes nothing and is no error, canceling an evicted one is
// ErrUnknownJob, and with only finished jobs Drain and Close have
// nothing to wait for — Drain answers nil even on a context already
// done.
func TestCancelAndDrainOnFinishedJobs(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2902},
		Pipeline: PipelineConfig{MaxRetainedJobs: 2},
	})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 2; i++ {
		j, err := env.Submit(ctx, spinJobGraph("finished", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	look := func(id string) [2][]byte {
		s, ok := env.Job(id)
		tr, traced := env.JobTrace(id)
		if !ok || !traced {
			t.Fatalf("%s: row %v, trace %v", id, ok, traced)
		}
		return [2][]byte{s.AppendJSON(nil), mustJSON(t, tr)}
	}
	before, cursor := look(ids[0]), env.pipe.events.Cursor()
	if err := env.CancelJob(ids[0]); err != nil {
		t.Fatalf("CancelJob on a finished job: %v", err)
	}
	if after := look(ids[0]); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) {
		t.Fatalf("CancelJob changed a finished job:\n%s\n%s\nto\n%s\n%s", before[0], before[1], after[0], after[1])
	}
	if got := env.pipe.events.Cursor(); got != cursor {
		t.Fatalf("CancelJob on a finished job published %d events", got-cursor)
	}

	done, cancel := context.WithCancel(ctx)
	cancel()
	for i := 0; i < 20; i++ {
		if err := env.Drain(done); err != nil {
			t.Fatalf("Drain with only finished jobs: %v", err)
		}
	}
	if n := len(env.pipe.records()); n != 0 {
		t.Fatalf("the pipeline holds %d records with every job finished", n)
	}

	j, err := env.Submit(ctx, spinJobGraph("evicts", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := env.Job(ids[0]); ok {
		t.Fatalf("%s is still retained past MaxRetainedJobs", ids[0])
	}
	if err := env.CancelJob(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("CancelJob on an evicted job = %v, want ErrUnknownJob", err)
	}
}
