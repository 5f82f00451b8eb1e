package vdce

// One job registry (ISSUE 17): the board holds the only copy of published
// job state, so the four ways of reading it cannot disagree, the handle
// index shadows it ID for ID, and a store failing underneath costs
// durability, loudly, never the job.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vdce/internal/services"
	"vdce/internal/testbed"
)

// TestFourReadsOneAnswer: while 8 owners submit and cancel, readers walk
// every read path; at each quiescent point CountJobs, a full
// ListJobsAfter walk, Jobs() and the sum of Owners() usage agree row for
// row, and after retention has wrapped the board three times over the
// handle index is empty: every finished job lives on the board alone.
func TestFourReadsOneAnswer(t *testing.T) {
	const owners, perOwner, retain, rounds = 8, 5, 32, 4 // 160 jobs through 32 rows
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 1717, BaseLoadMax: 0.2},
		Pipeline: PipelineConfig{
			QueueDepth:        owners * perOwner,
			SchedulerWorkers:  2,
			MaxConcurrentRuns: 2,
			MaxRetainedJobs:   retain,
		},
	})
	ctx := context.Background()

	for round := 0; round < rounds; round++ {
		var stop atomic.Bool
		var readers, submitters sync.WaitGroup
		readers.Add(1)
		go func() {
			// Mid-flight the reads may each see a different instant; each
			// must still be canonically ordered and duplicate-free.
			defer readers.Done()
			for !stop.Load() {
				for _, rows := range [][]services.JobStatus{walkJobs(env, "", ""), env.Jobs()} {
					for i := 1; i < len(rows); i++ {
						a, b := rows[i-1], rows[i]
						if b.SubmittedAt.Before(a.SubmittedAt) || (b.SubmittedAt.Equal(a.SubmittedAt) && b.ID <= a.ID) {
							t.Errorf("listing out of canonical order: %s then %s", a.ID, b.ID)
							return
						}
					}
				}
				env.CountJobs("", "")
				env.Owners()
			}
		}()
		for o := 0; o < owners; o++ {
			submitters.Add(1)
			go func(o int) {
				defer submitters.Done()
				for i := 0; i < perOwner; i++ {
					j, err := env.Submit(ctx, soakGraph(t, o*perOwner+i), WithOwner(fmt.Sprintf("own-%d", o)))
					if err != nil {
						t.Errorf("round %d owner %d: %v", round, o, err)
						return
					}
					if i%2 == 1 {
						j.Cancel()
					}
				}
			}(o)
		}
		submitters.Wait()
		if err := env.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		stop.Store(true)
		readers.Wait()

		// Quiescent: every job is terminal and nothing is publishing.
		walk, jobs := walkJobs(env, "", ""), env.Jobs()
		if total := env.CountJobs("", ""); total != len(walk) || total != len(jobs) {
			t.Fatalf("round %d: CountJobs %d, ListJobsAfter walk %d rows, Jobs %d rows", round, total, len(walk), len(jobs))
		}
		perState, perOwnerRows := map[string]int{}, map[string]int{}
		for i, s := range walk {
			if jobs[i].ID != s.ID || jobs[i].State != s.State || !s.Terminal() {
				t.Fatalf("round %d row %d: walk has %s/%s, Jobs has %s/%s", round, i, s.ID, s.State, jobs[i].ID, jobs[i].State)
			}
			perState[s.State]++
			perOwnerRows[s.Owner]++
		}
		for state, n := range perState {
			if got := env.CountJobs("", state); got != n {
				t.Fatalf("round %d: CountJobs(%s) = %d, the walk has %d", round, state, got, n)
			}
		}
		sum := 0
		for _, o := range env.Owners() {
			u := o.Usage
			if u.Total != perOwnerRows[o.Owner] || u.Total != env.CountJobs(o.Owner, "") ||
				u.Done+u.Failed+u.Canceled != u.Total {
				t.Fatalf("round %d: owner %s usage %+v, the walk has %d rows, CountJobs %d",
					round, o.Owner, u, perOwnerRows[o.Owner], env.CountJobs(o.Owner, ""))
			}
			sum += u.Total
		}
		if sum != len(walk) {
			t.Fatalf("round %d: Owners() usage sums to %d, the listing has %d rows", round, sum, len(walk))
		}
		// Retention ran at every submit; only rows still in flight at the
		// last ones can sit above the cap.
		if len(walk) > retain+owners*perOwner {
			t.Fatalf("round %d: board retains %d rows, cap %d", round, len(walk), retain)
		}

		if n := len(env.pipe.records()); n != 0 {
			t.Fatalf("round %d: %d records with every job finished", round, n)
		}
	}
}

// TestStoreFailureIsCountedNotSwallowed closes the durable store
// underneath a live pipeline: every append from then on fails, and each
// failure must move vdce_store_errors_total{op} while the job still
// completes in memory.
func TestStoreFailureIsCountedNotSwallowed(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 1718},
		StoreDir: t.TempDir(),
	})
	ctx := context.Background()
	errs := func(op string) float64 { return env.obsM.storeErrors.Value(op) }

	before, err := env.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := before.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if n := errs("job-submitted") + errs("job-state"); n != 0 {
		t.Fatalf("%v store errors on a healthy store", n)
	}

	if err := env.Store.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := env.Submit(ctx, soakGraph(t, 1), WithOwner("user_k"))
	if err != nil {
		t.Fatalf("submit over a dead store: %v", err)
	}
	if err := after.Wait(ctx); err != nil {
		t.Fatalf("job over a dead store: %v", err)
	}
	if s, ok := env.Job(after.ID); !ok || s.State != services.JobStateDone {
		t.Fatalf("listing over a dead store: %+v (found %v)", s, ok)
	}
	if errs("job-submitted") != 1 {
		t.Fatalf("job-submitted errors = %v, want 1", errs("job-submitted"))
	}
	// scheduling, running, done: every transition tried to append.
	if errs("job-state") != 3 {
		t.Fatalf("job-state errors = %v, want 3", errs("job-state"))
	}
	if errs("perf-measured") == 0 {
		t.Fatal("the run's measurements failed to append without a perf-measured error")
	}
	weight := 7
	if _, err := env.UpdateOwner("user_k", services.OwnerUpdate{Weight: &weight}); err != nil {
		t.Fatalf("owner update over a dead store: %v", err)
	}
	if errs("owner-updated") != 1 {
		t.Fatalf("owner-updated errors = %v, want 1", errs("owner-updated"))
	}
}

// TestDeadStoreFailsClosed takes the durable store's directory away so
// the next segment rotation fails: from the log's first I/O error on,
// new submissions are shed with store-unavailable and leave nothing
// behind, Ready answers false, the job already in flight still
// finishes (its lost appends counted), and an environment without a
// store never notices.
func TestDeadStoreFailsClosed(t *testing.T) {
	dir := t.TempDir()
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2104},
		StoreDir: dir,
	})
	ctx := context.Background()
	if ok, why := env.Ready(); !ok {
		t.Fatalf("not ready on a healthy store: %s", why)
	}
	inflight, err := env.Submit(ctx, spinJobGraph("held", 400))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, inflight, JobRunning)

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := env.Store.Compact(); err == nil {
		t.Fatal("compaction rotated into a directory that is gone")
	}
	if env.Store.Err() == nil {
		t.Fatal("the failed rotation left no sticky error")
	}

	rows, records := env.CountJobs("", ""), len(env.pipe.records())
	_, err = env.Submit(ctx, soakGraph(t, 1))
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedStoreUnavailable || shed.RetryAfter <= 0 {
		t.Fatalf("submit over a failed store: %v, want a %s shed with a backoff", err, ShedStoreUnavailable)
	}
	if got := env.obsM.rejectStore.Value(); got != 1 {
		t.Fatalf("vdce_admission_rejects_total{reason=%q} = %v, want 1", ShedStoreUnavailable, got)
	}
	if env.CountJobs("", "") != rows || len(env.pipe.records()) != records {
		t.Fatalf("the shed submission left residue: %d rows (was %d), %d records (was %d)",
			env.CountJobs("", ""), rows, len(env.pipe.records()), records)
	}
	if ok, why := env.Ready(); ok || !strings.HasPrefix(why, "durable store failed: ") {
		t.Fatalf("Ready over a failed store = %v, %q", ok, why)
	}

	if err := inflight.Wait(ctx); err != nil {
		t.Fatalf("the in-flight job did not survive the store: %v", err)
	}
	if n := env.obsM.storeErrors.Value("job-state"); n == 0 {
		t.Fatal("the in-flight job's terminal append failed without moving vdce_store_errors_total")
	}

	plain := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2104}})
	if ok, why := plain.Ready(); !ok {
		t.Fatalf("storeless environment not ready: %s", why)
	}
	job, err := plain.Submit(ctx, soakGraph(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
