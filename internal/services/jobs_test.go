package services

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJobBoardLifecycle(t *testing.T) {
	b := NewJobBoard()
	now := time.Now()
	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateQueued, SubmittedAt: now})
	b.Update(JobStatus{ID: "job-2", App: "c3i", State: JobStateQueued, SubmittedAt: now})
	if got := b.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateRunning, SubmittedAt: now, StartedAt: now})
	b.Update(JobStatus{ID: "job-1", App: "les", State: JobStateDone, SubmittedAt: now, StartedAt: now, FinishedAt: now})
	b.Update(JobStatus{ID: "job-2", App: "c3i", State: JobStateFailed, SubmittedAt: now, Error: "no eligible host"})

	if got := b.InFlight(); got != 0 {
		t.Fatalf("InFlight after completion = %d, want 0", got)
	}
	counts := b.Counts()
	if counts[JobStateDone] != 1 || counts[JobStateFailed] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	if len(counts) != 2 {
		t.Fatalf("Counts keeps emptied states: %v", counts)
	}

	s, ok := b.Get("job-2")
	if !ok || s.Error != "no eligible host" || !s.Terminal() {
		t.Fatalf("Get(job-2) = %+v, %v", s, ok)
	}
	if _, ok := b.Get("job-404"); ok {
		t.Fatal("Get of unknown job succeeded")
	}

	list := b.List()
	if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
		t.Fatalf("List out of submission order: %+v", list)
	}
}

// TestJobBoardStableOrderAndFilters is the pagination-determinism
// regression test: List orders by (submit time, then ID) regardless of
// insertion order, and ListFiltered narrows by owner and state without
// disturbing that order.
func TestJobBoardStableOrderAndFilters(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(100, 0)
	// Inserted deliberately out of submission order, with an ID tie on t0.
	b.Update(JobStatus{ID: "job-3", Owner: "ana", State: JobStateRunning, SubmittedAt: t0.Add(2 * time.Second)})
	b.Update(JobStatus{ID: "job-2", Owner: "bo", State: JobStateQueued, SubmittedAt: t0})
	b.Update(JobStatus{ID: "job-1", Owner: "ana", State: JobStateDone, SubmittedAt: t0})
	b.Update(JobStatus{ID: "job-4", Owner: "ana", State: JobStateCanceled, SubmittedAt: t0.Add(time.Second)})

	wantOrder := []string{"job-1", "job-2", "job-4", "job-3"}
	list := b.List()
	if len(list) != len(wantOrder) {
		t.Fatalf("List = %d entries, want %d", len(list), len(wantOrder))
	}
	for i, id := range wantOrder {
		if list[i].ID != id {
			t.Fatalf("List[%d] = %s, want %s (full: %+v)", i, list[i].ID, id, list)
		}
	}
	// Repeated calls are identical — the determinism pagination needs.
	again := b.List()
	for i := range list {
		if again[i].ID != list[i].ID {
			t.Fatalf("List not stable across calls: %v vs %v", again[i].ID, list[i].ID)
		}
	}

	owned := b.ListFiltered("ana", "")
	if len(owned) != 3 || owned[0].ID != "job-1" || owned[1].ID != "job-4" || owned[2].ID != "job-3" {
		t.Fatalf("ListFiltered(ana) = %+v", owned)
	}
	canceled := b.ListFiltered("", JobStateCanceled)
	if len(canceled) != 1 || canceled[0].ID != "job-4" {
		t.Fatalf("ListFiltered(canceled) = %+v", canceled)
	}
	if !canceled[0].Terminal() {
		t.Fatal("canceled status not terminal")
	}
	both := b.ListFiltered("ana", JobStateDone)
	if len(both) != 1 || both[0].ID != "job-1" {
		t.Fatalf("ListFiltered(ana, done) = %+v", both)
	}
	if got := b.ListFiltered("ghost", ""); len(got) != 0 {
		t.Fatalf("ListFiltered(ghost) = %+v, want empty", got)
	}
}

func TestJobBoardConcurrentUpdates(t *testing.T) {
	b := NewJobBoard()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				b.Update(JobStatus{ID: id, State: JobStateQueued})
				b.Update(JobStatus{ID: id, State: JobStateDone})
				b.Get(id)
				b.InFlight()
			}
		}(w)
	}
	wg.Wait()
	if got := len(b.List()); got != 8*50 {
		t.Fatalf("List = %d entries, want %d", got, 8*50)
	}
	if got := b.Counts()[JobStateDone]; got != 8*50 {
		t.Fatalf("done count = %d, want %d", got, 8*50)
	}
}
