package services

// Job registry suite: one fixed-seed op stream holding order, paging,
// eviction and aggregates to a model, count/list equivalence, board-side
// weight memory, a concurrent read/write soak, and the million-job
// benchmarks EXPERIMENTS.md records.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var boardStates = []string{
	JobStateQueued, JobStateScheduling, JobStateRunning,
	JobStateDone, JobStateFailed, JobStateCanceled,
}

// recountBoard rebuilds the board's aggregates from a full listing —
// the brute-force ground truth the incremental tallies must match.
func recountBoard(b *JobBoard) (counts map[string]int, usage map[string]OwnerUsage) {
	counts = make(map[string]int)
	usage = make(map[string]OwnerUsage)
	for _, s := range b.List() {
		counts[s.State]++
		u := usage[s.Owner]
		switch s.State {
		case JobStateQueued:
			u.Queued++
		case JobStateScheduling, JobStateRunning:
			u.InFlight++
		case JobStateDone:
			u.Done++
		case JobStateFailed:
			u.Failed++
		case JobStateCanceled:
			u.Canceled++
		}
		u.HostsHeld += s.HostsHeld
		u.Total++
		usage[s.Owner] = u
	}
	return counts, usage
}

// TestJobBoardAggregatesMatchRecount drives one fixed-seed
// update/delete/evict stream and checks the registry's whole contract
// after every step: List is the model's rows in canonical order (the
// board never sorts: it inserts in place), PageAfter pages of 1, 7 and
// 100 tile List exactly, a terminal row is final, EvictTerminal drops
// exactly the oldest terminal rows and never a non-terminal one — a
// running row older than everything else sits at the head throughout —
// and the incremental aggregates equal a brute-force recount.
func TestJobBoardAggregatesMatchRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(1010))
	b := NewJobBoard()
	base := time.Unix(40000, 0)
	head := JobStatus{ID: "head", Owner: "own-0", State: JobStateRunning, SubmittedAt: base.Add(-time.Hour)}
	b.Update(head)
	model := map[string]JobStatus{head.ID: head}
	live := []string{}
	next := 0
	forget := func(id string) {
		delete(model, id)
		live = slices.DeleteFunc(live, func(l string) bool { return l == id })
	}
	for op := 0; op < 1200; op++ {
		switch c := rng.Intn(10); {
		case c < 5 || len(live) == 0: // insert, usually out of order
			s := JobStatus{
				ID: fmt.Sprintf("r%d", next), Owner: fmt.Sprintf("own-%d", rng.Intn(25)),
				State:       boardStates[rng.Intn(len(boardStates))],
				HostsHeld:   rng.Intn(4),
				ShareWeight: 1 + rng.Intn(5),
				SubmittedAt: base.Add(time.Duration(rng.Intn(400)) * time.Microsecond),
			}
			next++
			live = append(live, s.ID)
			model[s.ID] = s
			b.Update(s)
		case c < 8: // state transition; dropped when the row is already terminal
			id := live[rng.Intn(len(live))]
			s := model[id]
			wasTerminal := s.Terminal()
			s.State = boardStates[rng.Intn(len(boardStates))]
			s.HostsHeld = rng.Intn(4)
			b.Update(s)
			if !wasTerminal {
				model[id] = s
			}
		case c < 9:
			id := live[rng.Intn(len(live))]
			b.Delete(id)
			forget(id)
		default: // retention
			keep := len(model) - rng.Intn(4)
			var want []string
			for _, s := range b.List() {
				if len(model)-len(want) > keep && s.Terminal() {
					want = append(want, s.ID)
				}
			}
			got := b.EvictTerminal(keep)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: EvictTerminal(%d) = %v, want the oldest terminal rows %v", op, keep, got, want)
			}
			for _, id := range got {
				forget(id)
			}
		}

		list := b.List()
		want := make([]JobStatus, 0, len(model))
		for _, s := range model {
			want = append(want, s)
		}
		sort.Slice(want, func(i, j int) bool { return rowBefore(&want[i], &want[j]) })
		if len(list) != len(want) || list[0].ID != head.ID {
			t.Fatalf("op %d: List has %d rows headed by %s, model %d headed by %s", op, len(list), list[0].ID, len(want), head.ID)
		}
		for i := range want {
			if list[i].ID != want[i].ID || list[i].State != want[i].State || list[i].HostsHeld != want[i].HostsHeld {
				t.Fatalf("op %d: List[%d] = %+v, model %+v", op, i, list[i], want[i])
			}
		}
		for _, size := range []int{1, 7, 100} {
			var tiled []string
			var nanos int64
			var id string
			for {
				page, more := b.PageAfter("", "", nanos, id, size)
				for _, s := range page {
					tiled = append(tiled, s.ID)
				}
				if !more {
					break
				}
				if len(page) != size {
					t.Fatalf("op %d: a page of %d promised more after %d rows", op, size, len(page))
				}
				last := page[len(page)-1]
				nanos, id = last.SubmittedAt.UnixNano(), last.ID
			}
			if len(tiled) != len(list) {
				t.Fatalf("op %d: pages of %d tiled %d rows, List has %d", op, size, len(tiled), len(list))
			}
			for i := range list {
				if tiled[i] != list[i].ID {
					t.Fatalf("op %d: pages of %d: row %d = %s, List has %s", op, size, i, tiled[i], list[i].ID)
				}
			}
		}
		wantCounts, wantUsage := recountBoard(b)
		gotCounts := b.Counts()
		for _, st := range boardStates {
			if gotCounts[st] != wantCounts[st] {
				t.Fatalf("op %d: Counts[%s] = %d, recount = %d", op, st, gotCounts[st], wantCounts[st])
			}
		}
		gotUsage := b.OwnerUsages()
		if len(gotUsage) != len(wantUsage) {
			t.Fatalf("op %d: OwnerUsages has %d owners, recount %d", op, len(gotUsage), len(wantUsage))
		}
		for owner, want := range wantUsage {
			if gotUsage[owner] != want {
				t.Fatalf("op %d: OwnerUsages[%s] = %+v, recount %+v", op, owner, gotUsage[owner], want)
			}
		}
		if got := b.CountFiltered("", ""); got != len(model) {
			t.Fatalf("op %d: CountFiltered = %d, want %d", op, got, len(model))
		}
	}
	// Once the long-running head finishes it is the oldest terminal row.
	head.State = JobStateDone
	b.Update(head)
	if got := b.EvictTerminal(len(model) - 1); len(got) != 1 || got[0] != head.ID {
		t.Fatalf("EvictTerminal after the head finished = %v, want [head]", got)
	}
}

// TestJobBoardEvictionAllocBudget pins what a submit costs the registry
// at full retention: publishing a new row and evicting the oldest
// terminal one allocate the row, the evicted-ID slice and (amortized)
// index growth — nothing proportional to the 8,192 rows retained.
func TestJobBoardEvictionAllocBudget(t *testing.T) {
	const rows = 8192
	b := NewJobBoard()
	base := time.Unix(45000, 0)
	row := func(i int) JobStatus {
		return JobStatus{
			ID: fmt.Sprintf("job-%d", i), Owner: fmt.Sprintf("own-%d", i%64), State: JobStateDone,
			SubmittedAt: base.Add(time.Duration(i) * time.Microsecond),
		}
	}
	next := 0
	for ; next < rows; next++ {
		b.Update(row(next))
	}
	fresh := make([]JobStatus, 2000)
	for i := range fresh {
		fresh[i] = row(rows + i)
	}
	allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		b.Update(fresh[next-rows])
		next++
		if got := b.EvictTerminal(rows); len(got) != 1 {
			t.Fatalf("evicted %v, want one row", got)
		}
	})
	t.Logf("Update of a new row + EvictTerminal at %d rows: %.1f allocs", rows, allocs)
	if allocs > 4 {
		t.Fatalf("Update of a new row + EvictTerminal at %d rows = %.1f allocs, budget 4", rows, allocs)
	}
}

// TestJobBoardCountFilteredMatchesList pins CountFiltered (the
// count-only listing backend) to len(ListFiltered) across every filter
// shape, including the owner+in-flight-state combinations that count
// rows.
func TestJobBoardCountFilteredMatchesList(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := NewJobBoard()
	base := time.Unix(41000, 0)
	owners := []string{"", "ana", "bo", "cy"}
	for i := 0; i < 600; i++ {
		b.Update(JobStatus{
			ID: fmt.Sprintf("cf%d", i), Owner: owners[rng.Intn(len(owners))],
			State:       boardStates[rng.Intn(len(boardStates))],
			SubmittedAt: base.Add(time.Duration(i) * time.Millisecond),
		})
	}
	for _, owner := range append(owners, "nobody") {
		for _, state := range append([]string{""}, boardStates...) {
			got := b.CountFiltered(owner, state)
			want := len(b.ListFiltered(owner, state))
			if got != want {
				t.Fatalf("CountFiltered(%q, %q) = %d, ListFiltered len = %d", owner, state, got, want)
			}
		}
	}
}

// TestJobBoardOwnerWeights pins the board-side weight memory: per
// owner, the latest-submitted retained row's share weight wins, ties
// on submit time break by higher ID, and deleting the last row forgets
// the owner.
func TestJobBoardOwnerWeights(t *testing.T) {
	b := NewJobBoard()
	t0 := time.Unix(42000, 0)
	b.Update(JobStatus{ID: "w1", Owner: "ana", State: JobStateDone, ShareWeight: 2, SubmittedAt: t0})
	b.Update(JobStatus{ID: "w2", Owner: "ana", State: JobStateDone, ShareWeight: 5, SubmittedAt: t0.Add(time.Second)})
	b.Update(JobStatus{ID: "w3", Owner: "bo", State: JobStateDone, ShareWeight: 3, SubmittedAt: t0})
	// Same instant as w3 but higher ID: wins bo's tie.
	b.Update(JobStatus{ID: "w4", Owner: "bo", State: JobStateDone, ShareWeight: 4, SubmittedAt: t0})
	w := b.OwnerWeights()
	if w["ana"] != 5 || w["bo"] != 4 {
		t.Fatalf("OwnerWeights = %v, want ana=5 bo=4", w)
	}
	b.Delete("w2")
	// w2 (the latest) evicted: the aggregate's weight sticks at the last
	// value seen, which is still the latest submission the board knew
	// about.
	if w := b.OwnerWeights(); w["ana"] == 0 {
		t.Fatalf("OwnerWeights after evicting latest row = %v, want ana retained", w)
	}
	b.Delete("w1")
	if w := b.OwnerWeights(); w["ana"] != 0 {
		t.Fatalf("OwnerWeights after deleting all of ana's rows = %v, want ana forgotten", w)
	}
}

// TestJobBoardConcurrentReadersAndWriters is the -race soak: listing,
// counting, and usage readers run against a write storm and must always
// observe canonically ordered rows, with a correct final recount.
func TestJobBoardConcurrentReadersAndWriters(t *testing.T) {
	b := NewJobBoard()
	base := time.Unix(43000, 0)
	const (
		writers = 4
		rows    = 300
	)
	var stop atomic.Bool
	var writersWG, readerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				id := fmt.Sprintf("cw%d-%d", w, rng.Intn(rows))
				if rng.Intn(8) == 0 {
					b.Delete(id)
					continue
				}
				b.Update(JobStatus{
					ID: id, Owner: fmt.Sprintf("own-%d", w),
					State:       boardStates[rng.Intn(len(boardStates))],
					SubmittedAt: base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond),
				})
			}
		}(w)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for !stop.Load() {
			rows := b.ListFiltered("own-1", "")
			for i := 1; i < len(rows); i++ {
				if rows[i].SubmittedAt.Before(rows[i-1].SubmittedAt) {
					t.Error("ListFiltered out of order under concurrent writes")
					return
				}
			}
			b.OwnerUsages()
			b.CountFiltered("", JobStateRunning)
			b.Counts()
		}
	}()
	writersWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	wantCounts, _ := recountBoard(b)
	gotCounts := b.Counts()
	for _, st := range boardStates {
		if gotCounts[st] != wantCounts[st] {
			t.Fatalf("final Counts[%s] = %d, recount = %d", st, gotCounts[st], wantCounts[st])
		}
	}
}

// millionBoard lazily builds the shared million-row board the
// BenchmarkJobBoardMillion sub-benchmarks read: 1e6 jobs across 1000
// owners in a realistic state mix. Built once per test binary run.
var millionBoard struct {
	once sync.Once
	b    *JobBoard
	ids  []string
}

func millionRow(i int) JobStatus {
	return JobStatus{
		ID:          fmt.Sprintf("m%07d", i),
		Owner:       fmt.Sprintf("owner-%03d", i%1000),
		State:       boardStates[i%len(boardStates)],
		ShareWeight: 1 + i%5,
		SubmittedAt: time.Unix(44000, 0).Add(time.Duration(i) * time.Microsecond),
	}
}

func getMillionBoard() (*JobBoard, []string) {
	millionBoard.once.Do(func() {
		const n = 1_000_000
		board := NewJobBoard()
		ids := make([]string, n)
		for i := 0; i < n; i++ {
			s := millionRow(i)
			ids[i] = s.ID
			board.Update(s)
		}
		millionBoard.b, millionBoard.ids = board, ids
	})
	return millionBoard.b, millionBoard.ids
}

// BenchmarkJobBoardMillion measures the board at a million retained
// jobs; update-during-list runs writes beside two looping listers that
// hold the board's one mutex for a whole filtered scan.
func BenchmarkJobBoardMillion(b *testing.B) {
	b.Run("update", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := int(i.Add(1)) % 1_000_000
				s := millionRow(n)
				s.State = JobStateRunning
				board.Update(s)
			}
		})
	})
	b.Run("update-during-list", func(b *testing.B) {
		board, _ := getMillionBoard()
		var stop atomic.Bool
		var listers sync.WaitGroup
		for l := 0; l < 2; l++ {
			listers.Add(1)
			go func(l int) {
				defer listers.Done()
				for !stop.Load() {
					board.ListFiltered(fmt.Sprintf("owner-%03d", l), "")
				}
			}(l)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := int(i.Add(1)) % 1_000_000
				s := millionRow(n)
				s.State = JobStateScheduling
				board.Update(s)
			}
		})
		b.StopTimer()
		stop.Store(true)
		listers.Wait()
	})
	b.Run("get", func(b *testing.B) {
		board, ids := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := board.Get(ids[i%len(ids)]); !ok {
				b.Fatal("row missing")
			}
		}
	})
	b.Run("list-owner", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			board.ListFiltered(fmt.Sprintf("owner-%03d", i%1000), "")
		}
	})
	// Keyset pages cost the same at any depth: a binary search to the
	// resume point plus the page (the root package's
	// BenchmarkListCursorDeepBoard rows, moved onto the registry that now
	// serves them).
	for _, depth := range []struct {
		name  string
		after int
	}{{"page-first", 0}, {"page-last", 1_000_000 - 100}} {
		b.Run(depth.name, func(b *testing.B) {
			board, _ := getMillionBoard()
			var nanos int64
			var id string
			if depth.after > 0 {
				last := millionRow(depth.after - 1)
				nanos, id = last.SubmittedAt.UnixNano(), last.ID
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if page, _ := board.PageAfter("", "", nanos, id, 100); len(page) != 100 {
					b.Fatalf("page of %d rows", len(page))
				}
			}
		})
	}
	b.Run("count-filtered", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			board.CountFiltered(fmt.Sprintf("owner-%03d", i%1000), JobStateQueued)
		}
	})
	b.Run("owner-usages", func(b *testing.B) {
		board, _ := getMillionBoard()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if u := board.OwnerUsages(); len(u) == 0 {
				b.Fatal("no owners")
			}
		}
	})
}
