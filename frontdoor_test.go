package vdce

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

// TestLateEngineEventLeavesTerminalRowAlone: a reschedule or host
// failure the engine reports after a running job was canceled changes
// nothing — not the job's row (handle, board, listing), not its trace,
// not the owner's held hosts — and publishes nothing after the job's
// terminal event.
func TestLateEngineEventLeavesTerminalRowAlone(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 161},
		Pipeline: PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
	})
	job, err := env.Submit(context.Background(), spinJobGraph("late", 60_000), WithOwner("user_k"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, JobRunning)
	job.Cancel()
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("canceled job did not terminalize")
	}

	type view struct {
		handle, board, listed []byte
		cursor                uint64
		trace                 int
		held                  int
	}
	look := func() view {
		boardRow, ok := env.Board.Get(job.ID)
		if !ok {
			t.Fatal("job left the board")
		}
		page, _ := env.ListJobsAfter("", "", jobsapi.Cursor{}, 10)
		if len(page) != 1 {
			t.Fatalf("listing has %d rows", len(page))
		}
		return view{
			handle: job.Status().AppendJSON(nil),
			board:  boardRow.AppendJSON(nil),
			listed: page[0].AppendJSON(nil),
			cursor: env.pipe.events.Cursor(),
			trace:  len(job.Trace().Events),
			held:   env.Board.OwnerUsages()["user_k"].HostsHeld,
		}
	}
	before := look()
	if !bytes.Equal(before.handle, before.board) || !bytes.Equal(before.handle, before.listed) {
		t.Fatalf("terminal row differs between surfaces:\nhandle %s\nboard  %s\nlisted %s", before.handle, before.board, before.listed)
	}
	if st := job.Status(); st.State != services.JobStateCanceled || st.HostsHeld != 0 {
		t.Fatalf("terminal status = %+v", st)
	}

	job.execEvent(exec.Event{Type: exec.EventRescheduled, Host: "h-late", Hosts: []string{"h-late", "h-later"}})
	job.execEvent(exec.Event{Type: exec.EventHostFailure, Host: "h-late"})

	after := look()
	if !bytes.Equal(after.handle, before.handle) || !bytes.Equal(after.board, before.board) || !bytes.Equal(after.listed, before.listed) {
		t.Fatalf("late engine events changed a terminal row:\nbefore %s\nafter  %s\nboard  %s", before.handle, after.handle, after.board)
	}
	if after.cursor != before.cursor {
		t.Fatalf("late engine events published %d stream events after the terminal one", after.cursor-before.cursor)
	}
	if after.trace != before.trace || after.held != before.held {
		t.Fatalf("trace %d -> %d events, held hosts %d -> %d", before.trace, after.trace, before.held, after.held)
	}
	if job.Reschedules() != 0 || len(job.FailedHosts()) != 0 {
		t.Fatalf("reschedules %d, failed hosts %v", job.Reschedules(), job.FailedHosts())
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a handler's
// own allocations are all a measurement sees.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestListPageAllocBudget: a page of terminal jobs costs the same
// number of allocations whether it has 10 rows or 100 — each row is a
// copy of the board's, sharing its timings block, and is appended into
// a pooled buffer, with no reflection or timestamp marshalling (21
// allocations a row before).
func TestListPageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 162}})
	ctx := context.Background()
	for i := 0; i < 120; i++ {
		if _, err := env.Submit(ctx, spinJobGraph(fmt.Sprintf("row-%d", i), 0), WithOwner("user_k"),
			WithLabels(map[string]string{"batch": "alloc"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	h := env.JobsHandler(jobsapi.Config{
		Authenticate: func(*http.Request) (string, bool) { return "user_k", true },
	})
	measure := func(limit int) float64 {
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs?limit=%d", limit), nil)
		w := discardWriter{h: make(http.Header)}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rows := bytes.Count(rec.Body.Bytes(), []byte(`"state":"done"`)); rec.Code != 200 || rows != limit {
			t.Fatalf("limit=%d: status %d, %d done rows", limit, rec.Code, rows)
		}
		return testing.AllocsPerRun(50, func() { h.ServeHTTP(w, req) })
	}
	small, large := measure(10), measure(100)
	t.Logf("allocations per request: %.0f for 10 rows, %.0f for 100 rows", small, large)
	if diff := large - small; diff > 2 || diff < -2 {
		t.Fatalf("a 100-row page allocates %.0f times, a 10-row page %.0f: rows are not free", large, small)
	}
	if large > 60 {
		t.Fatalf("a 100-row page allocates %.0f times, budget 60", large)
	}
}
