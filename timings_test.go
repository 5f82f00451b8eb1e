package vdce

// One copy of a job's history (ISSUE 25): the phase stamps live in one
// timings block, sealed at the terminal state and shared from then on;
// the trace is rendered from it plus the point events, and must read
// exactly as the parent tree's append-and-clamp trace did.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vdce/internal/exec"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
	"vdce/internal/store"
	"vdce/internal/testbed"
)

// refTrace is the parent tree's lifecycle trace, kept as the reference
// model: every stamp appended and clamped to the one before it, the wait
// stamps kept raw beside it, running and finished kept clamped, and the
// seconds derived on every read.
type refTrace struct {
	events []services.TraceEvent
	t      services.JobTimings
}

func (r *refTrace) stamp(event, detail string, at time.Time) time.Time {
	if n := len(r.events); n > 0 && at.Before(r.events[n-1].At) {
		at = r.events[n-1].At
	}
	r.events = append(r.events, services.TraceEvent{At: at, Event: event, Detail: detail})
	return at
}

// phase is the parent's stamp of phase ph, named name.
func (r *refTrace) phase(ph int, name, detail string, at time.Time) {
	switch ph {
	case phSubmitted:
		r.t.SubmittedAt = at
	case phAdmitted:
		r.t.AdmittedAt = at
	case phScheduled:
		r.t.ScheduledAt = at
	case phDispatched:
		r.t.DispatchedAt = at
	case phRunning:
		at = r.stamp(name, detail, at)
		r.t.RunningAt = at
		return
	case phTerminal:
		r.t.FinishedAt = r.stamp(name, detail, at)
		return
	}
	r.stamp(name, detail, at)
}

// json renders the model as the parent's Trace did, as JSON.
func (r *refTrace) json(t *testing.T, id, owner, state string) []byte {
	t.Helper()
	secs := func(from, to time.Time) float64 {
		if from.IsZero() || to.IsZero() {
			return 0
		}
		if d := to.Sub(from); d > 0 {
			return d.Seconds()
		}
		return 0
	}
	tm := r.t
	tm.SubmitWaitSeconds = secs(tm.SubmittedAt, tm.AdmittedAt)
	tm.QueueWaitSeconds = secs(tm.AdmittedAt, tm.ScheduledAt)
	tm.DispatchWaitSeconds = secs(tm.ScheduledAt, tm.DispatchedAt)
	tm.RunSeconds = secs(tm.RunningAt, tm.FinishedAt)
	tm.TotalSeconds = secs(tm.SubmittedAt, tm.FinishedAt)
	return mustJSON(t, services.JobTrace{ID: id, Owner: owner, State: state, Events: r.events, Timings: &tm})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// phaseIndexOf maps a phase's trace name back to its index.
func phaseIndexOf(name string) (int, bool) {
	for ph, n := range phaseNames {
		if n == name {
			return ph, true
		}
	}
	return 0, false
}

// TestTraceMatchesReferenceModel drives fixed-seed op streams through a
// job and through the parent's trace: phases stamped in lifecycle order
// with random skips, point events in every gap, wall-clock steps
// backwards, a terminal state after any prefix (or none), and the boot
// replay's four paths — restored terminal, expired at replay, re-adopted
// queued and re-adopted in flight. The JobTrace JSON must be byte-equal
// after every stream, and stamps after the terminal state change nothing.
func TestTraceMatchesReferenceModel(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 2504}})
	g := spinJobGraph("model", 1)
	graphJSON := g.AppendJSON(nil)
	rng := rand.New(rand.NewSource(25))
	base := time.Now().Round(0) // wall clock only, like a persisted time
	var clock time.Time
	tick := func() time.Time {
		step := time.Duration(rng.Intn(4000)) * time.Microsecond
		if rng.Intn(5) == 0 {
			step = -2 * step // the wall clock stepped back
		}
		clock = clock.Add(step)
		return clock
	}
	points := []struct{ event, detail string }{
		{"host-park", ""}, {"host-unpark", ""}, {"rescheduled", "h-3"}, {"host-failure", "h-1"},
	}
	terminals := []struct {
		state JobState
		err   error
	}{
		{JobDone, nil}, {JobFailed, fmt.Errorf("task 0: %w", ErrJobDeadlineExceeded)},
		{JobFailed, ErrPipelineClosed}, {JobCanceled, ErrJobCanceled},
	}
	liveStates := []string{services.JobStateQueued, services.JobStateScheduling, services.JobStateRunning}
	kinds := map[string]int{}

	for stream := 0; stream < 3000; stream++ {
		clock = base.Add(-time.Duration(rng.Intn(1_000_000)) * time.Microsecond)
		var r refTrace
		var j *jobRecord
		state := services.JobStateQueued
		if rng.Intn(3) > 0 {
			kinds["fresh"]++
			// What pipeline.submit builds.
			j = &jobRecord{
				ID: fmt.Sprintf("m-%d", stream), Owner: "model", Graph: g, pipe: env.pipe,
				done: make(chan struct{}), state: JobQueued,
				phases: 1 << phSubmitted,
			}
			at := tick()
			j.timings.SubmittedAt = at
			r.phase(phSubmitted, services.PhaseSubmitted, "", at)
		} else {
			rec := &store.JobRecord{
				ID: fmt.Sprintf("r-%d", stream), Owner: "model", Graph: graphJSON,
				SubmittedAt: tick(), State: liveStates[rng.Intn(3)],
			}
			if rng.Intn(2) == 0 {
				rec.StartedAt = tick()
			}
			kind := rng.Intn(4)
			switch kind {
			case 0:
				rec.State = []string{services.JobStateDone, services.JobStateFailed, services.JobStateCanceled}[rng.Intn(3)]
				if rng.Intn(3) > 0 {
					rec.FinishedAt = tick()
				}
				if rng.Intn(2) == 0 {
					rec.Error = "task 0 failed"
				}
				if rng.Intn(10) == 0 {
					rec.Graph = []byte(`{"name":`) // undecodable: restored as failed
				}
			case 1:
				rec.Deadline = tick() // passed before the replay
				if rec.Deadline.After(base) {
					rec.Deadline = base
				}
			}
			kinds[[]string{"restored terminal", "expired at replay", "re-adopted", "re-adopted"}[kind]+" "+rec.State]++
			adopt := env.pipe.loadRecovered(&store.State{Jobs: map[string]*store.JobRecord{rec.ID: rec}})
			r.phase(phSubmitted, services.PhaseSubmitted, "", rec.SubmittedAt)
			r.t.RunningAt, r.t.FinishedAt = rec.StartedAt, rec.FinishedAt
			if len(adopt) == 0 {
				// Restored to the board alone: the row serves the trace.
				at := rec.FinishedAt
				if kind == 1 {
					at = rec.Deadline
				}
				if at.IsZero() {
					at = rec.SubmittedAt
				}
				row, _ := env.Job(rec.ID)
				r.phase(phTerminal, row.State, row.Error, at)
				tr, ok := env.JobTrace(rec.ID)
				if got, want := mustJSON(t, tr), r.json(t, rec.ID, "model", row.State); !ok || !bytes.Equal(got, want) {
					t.Fatalf("stream %d: restored trace differs from the reference\nrow %s\nref %s", stream, got, want)
				}
				kinds["terminal"]++
				continue
			}
			j = adopt[0]
			env.pipe.mu.Lock()
			delete(env.pipe.byID, rec.ID) // model jobs never settle; Close must not wait for them
			env.pipe.mu.Unlock()
			r.t.RunningAt = time.Time{}
			r.stamp("recovered", rec.State, j.points[0].At)
		}

		next := phAdmitted
	ops:
		for state == services.JobStateQueued || state == services.JobStateRunning {
			switch op := rng.Intn(10); {
			case op < 3:
				p := points[rng.Intn(len(points))]
				at := tick()
				j.mu.Lock()
				j.pointLocked(p.event, p.detail, at)
				j.mu.Unlock()
				r.stamp(p.event, p.detail, at)
			case op < 7:
				next += rng.Intn(2) // skip a phase now and then
				if next > phRunning {
					continue
				}
				at := tick()
				if next == phRunning {
					j.markRunning(at)
					state = services.JobStateRunning
				} else {
					j.stampPhase(next, at)
				}
				r.phase(next, phaseNames[next], "", at)
				next++
			case op < 9:
				// What terminalize does under j.mu.
				term := terminals[rng.Intn(len(terminals))]
				at := tick()
				j.mu.Lock()
				j.state, j.err = term.state, term.err
				j.sealLocked(at)
				j.mu.Unlock()
				state = term.state.String()
				detail := ""
				if term.err != nil {
					detail = term.err.Error()
				}
				r.phase(phTerminal, state, detail, at)
			default:
				break ops // still live
			}
		}
		got, want := mustJSON(t, j.Trace()), r.json(t, j.ID, j.Owner, state)
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d: trace differs from the reference\njob %s\nref %s", stream, got, want)
		}
		if !j.State().terminal() {
			continue
		}
		kinds["terminal"]++
		// The terminal row renders the same trace.
		env.Board.Update(j.Status())
		if tr, _ := env.JobTrace(j.ID); !bytes.Equal(mustJSON(t, tr), want) {
			t.Fatalf("stream %d: the board row's trace differs from the reference\nrow %s\nref %s", stream, mustJSON(t, tr), want)
		}
		status := mustJSON(t, j.Status())
		at := tick()
		j.stampPhase(phAdmitted, at)
		j.stampPhase(phDispatched, at)
		j.markRunning(at)
		j.stampEvent("host-park")
		j.execEvent(exec.Event{Type: exec.EventHostFailure, Host: "h-late"})
		if got := mustJSON(t, j.Trace()); !bytes.Equal(got, want) {
			t.Fatalf("stream %d: stamps after the terminal state changed the trace\nbefore %s\nafter  %s", stream, want, got)
		}
		if got := mustJSON(t, j.Status()); !bytes.Equal(got, status) {
			t.Fatalf("stream %d: stamps after the terminal state changed the status\nbefore %s\nafter  %s", stream, status, got)
		}
	}
	t.Logf("streams by kind: %v", kinds)
}

// refFromRow replays chain — the events a job went through, in the
// order the test made them happen — into the reference model, each phase
// at the instant the finished job's row holds and each point event at
// the one its marks hold.
func refFromRow(t *testing.T, s services.JobStatus, chain []string) []byte {
	t.Helper()
	var r refTrace
	r.t.RunningAt = s.Timings.RunningAt // a terminal restore's, outside its chain
	points := s.Points
	for _, ev := range chain {
		if ph, ok := phaseIndexOf(ev); ok {
			r.phase(ph, ev, "", *phaseAt(s.Timings, ph))
			continue
		}
		if ev == s.State {
			r.phase(phTerminal, ev, s.Error, s.Timings.FinishedAt)
			continue
		}
		if len(points) == 0 || points[0].Event != ev {
			t.Fatalf("job %s: chain %v expects point event %q, the row holds %+v", s.ID, chain, ev, s.Points)
		}
		r.stamp(ev, points[0].Detail, points[0].At)
		points = points[1:]
	}
	if len(points) != 0 {
		t.Fatalf("job %s: point events %+v are not in the chain %v", s.ID, points, chain)
	}
	return r.json(t, s.ID, s.Owner, s.State)
}

// TestTraceAcrossRestartMatchesReference asserts the equivalence live on
// a durable environment: a terminal restore, a queued and an in-flight
// job re-adopted after Crash(), two injected reschedules and a host
// failure on the re-dispatched run (the first reschedule grows the job's
// held hosts everywhere they are read, the second does not), and a
// hosts-quota park after the restart — each job's trace (and the /v1
// trace route's) reads byte for byte what the parent's append-and-clamp
// trace would have.
func TestTraceAcrossRestartMatchesReference(t *testing.T) {
	dir := t.TempDir()
	env, err := New(durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	submit := func(env *Environment, name string, ms int, owner string) *Job {
		t.Helper()
		j, err := env.Submit(ctx, spinJobGraph(name, ms), WithOwner(owner))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	done := submit(env, "pre-done", 1, "bob")
	if err := done.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	env.Console.Suspend()
	running, err := env.Submit(ctx, gatedJobGraph("pre-running"), WithOwner("bob"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, JobRunning)
	queued := submit(env, "backlog", 1, "alice")
	env.Crash()

	cfg := durableCfg(dir)
	cfg.Pipeline.Quota.MaxHostsPerOwner = 1
	env2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer env2.Close()
	inFlight, ok := env2.pipe.job(running.ID)
	if !ok {
		t.Fatalf("job %s was not re-adopted", running.ID)
	}
	// alice's backlog runs first; the re-run then stops at the console
	// once its spin ends.
	waitState(t, &Job{jobRecord: inFlight}, JobRunning) // a recovered job has no handle of its own
	env2.Console.Suspend()
	// The held set is the one count of the job's hosts: a reschedule onto
	// a new host raises the status, the board row and the owner's usage by
	// one each, publishing a state event before the rescheduled one; a
	// reschedule onto a host the job already holds moves none of them and
	// publishes only itself.
	jobEvents := func(after uint64) []jobsapi.StreamEvent {
		sub, replay, _ := env2.pipe.events.Subscribe(after, 0,
			func(ev jobsapi.StreamEvent) bool { return ev.Job.ID == running.ID })
		sub.Close()
		return replay
	}
	for evs := jobEvents(1); len(evs) == 0 || evs[len(evs)-1].Job.State != services.JobStateRunning; evs = jobEvents(1) {
		time.Sleep(time.Millisecond) // the running event is published after the state changes
	}
	held := func() [3]int {
		row, _ := env2.Board.Get(running.ID)
		return [3]int{inFlight.Status().HostsHeld, row.HostsHeld, env2.Board.OwnerUsages()["bob"].HostsHeld}
	}
	before, cursor := held(), env2.pipe.events.Cursor()
	if before[0] < 1 || before != [3]int{before[0], before[0], before[0]} {
		t.Fatalf("held hosts (status, row, owner) = %v before the reschedule", before)
	}
	placed := inFlight.Table().Entries[0].Hosts[0]
	inFlight.execEvent(exec.Event{Type: exec.EventRescheduled, Host: "h-moved", Hosts: []string{"h-moved"}})
	grown := held()
	inFlight.execEvent(exec.Event{Type: exec.EventRescheduled, Host: placed, Hosts: []string{placed}})
	want := [3]int{before[0] + 1, before[1] + 1, before[2] + 1}
	if grown != want || held() != want {
		t.Fatalf("held hosts (status, row, owner): %v, then %v after a new host, then %v after a held one; want %v twice",
			before, grown, held(), want)
	}
	var types []string
	for _, ev := range jobEvents(cursor) {
		types = append(types, ev.Type)
	}
	if fmt.Sprint(types) != "[state rescheduled rescheduled]" {
		t.Fatalf("the two reschedules published %v, want [state rescheduled rescheduled]", types)
	}
	inFlight.execEvent(exec.Event{Type: exec.EventHostFailure, Host: "h-lost"})
	drainCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	env2.Console.Resume()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The holder keeps carol's one host at the suspended console while
	// parked is scheduled.
	env2.Console.Suspend()
	holder := submit(env2, "holder", 1, "carol")
	waitState(t, holder, JobRunning)
	parked := submit(env2, "parked", 1, "carol")
	for !hasEvent(parked, "host-park") {
		time.Sleep(time.Millisecond)
	}
	env2.Console.Resume()
	if err := env2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	full := []string{"admitted", "scheduled", "dispatched", "running", "done"}
	chains := map[string][]string{
		done.ID:    {"submitted", "done"},
		queued.ID:  append([]string{"submitted", "recovered"}, full...),
		running.ID: {"submitted", "recovered", "admitted", "scheduled", "dispatched", "running", "rescheduled", "rescheduled", "host-failure", "done"},
		holder.ID:  append([]string{"submitted"}, full...),
		parked.ID:  {"submitted", "admitted", "scheduled", "host-park", "host-unpark", "dispatched", "running", "done"},
	}
	srv := env2.JobsHandler(jobsapi.Config{Authenticate: func(*http.Request) (string, bool) { return "admin", true }})
	for id, chain := range chains {
		s, ok := env2.Board.Get(id)
		if !ok || !s.Terminal() {
			t.Fatalf("no finished row for %s: %+v", id, s)
		}
		tr, _ := env2.JobTrace(id)
		got, want := mustJSON(t, tr), refFromRow(t, s, chain)
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s: trace differs from the reference\njob %s\nref %s", id, got, want)
		}
		served := serveTrace(t, srv, id)
		if !bytes.Equal(bytes.TrimSpace(served), got) {
			t.Fatalf("job %s: /v1 trace route differs from JobTrace\nroute %s\ntrace %s", id, served, got)
		}
	}
	for _, j := range []*Job{holder, parked} {
		if tr, _ := env2.JobTrace(j.ID); !bytes.Equal(mustJSON(t, j.Trace()), mustJSON(t, tr)) {
			t.Fatalf("job %s: the handle's trace differs from the row's", j.ID)
		}
	}
	if tr, _ := env2.JobTrace(done.ID); tr.Timings.RunningAt.IsZero() {
		t.Fatalf("terminal restore lost its running_at: %+v", tr.Timings)
	}
}

// TestLateStampLeavesTerminalTimingsAlone: every stamp is a no-op on a
// sealed job. The race it pins: a Cancel landing in pipeline.submit
// between the canceled() check and the admitted stamp used to append
// "admitted" after "canceled" and rewrite a terminal status the board
// had already published.
func TestLateStampLeavesTerminalTimingsAlone(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2505},
		Pipeline: PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
	})
	ctx := context.Background()
	done, err := env.Submit(ctx, spinJobGraph("done", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	canceled, err := env.Submit(ctx, spinJobGraph("canceled", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, canceled, JobRunning)
	canceled.Cancel()
	<-canceled.Done()

	look := func(j *Job) [4][]byte {
		row, ok := env.Board.Get(j.ID)
		if !ok {
			t.Fatalf("%s left the board", j.ID)
		}
		page, _ := env.ListJobsAfter("", j.State().String(), jobsapi.Cursor{}, 10)
		if len(page) != 1 || page[0].ID != j.ID {
			t.Fatalf("listing of %s: %+v", j.State(), page)
		}
		return [4][]byte{j.Status().AppendJSON(nil), row.AppendJSON(nil), page[0].AppendJSON(nil), mustJSON(t, j.Trace())}
	}
	for _, j := range []*Job{done, canceled} {
		before := look(j)
		if !bytes.Equal(before[0], before[1]) || !bytes.Equal(before[0], before[2]) {
			t.Fatalf("%s: terminal row differs between surfaces:\n%s\n%s\n%s", j.ID, before[0], before[1], before[2])
		}
		now := time.Now()
		j.stampPhase(phAdmitted, now)
		j.stampPhase(phScheduled, now)
		j.stampPhase(phDispatched, now)
		j.markRunning(now)
		j.stampEvent("host-unpark")
		if after := look(j); !bytes.Equal(after[0], before[0]) || !bytes.Equal(after[1], before[1]) ||
			!bytes.Equal(after[2], before[2]) || !bytes.Equal(after[3], before[3]) {
			t.Fatalf("%s: a stamp after the terminal state changed it:\nbefore %s\n       %s\nafter  %s\n       %s",
				j.ID, before[0], before[3], after[0], after[3])
		}
	}
}

// TestTerminalTimingsAreShared pins the Timings contract: a live job
// hands out a fresh copy on every Status, and changing one changes
// nothing the job reports later; a finished job's block is shared — the
// handle's Status and Trace carry the record's, the board row, a listing
// row and the trace route the row's own copy, equal to it and never the
// same pointer, so the row outlives the record.
func TestTerminalTimingsAreShared(t *testing.T) {
	env := newEnv(t, Config{
		Testbed:  testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 2506},
		Pipeline: PipelineConfig{SchedulerWorkers: 1, MaxConcurrentRuns: 1},
	})
	ctx := context.Background()
	live, err := env.Submit(ctx, spinJobGraph("live", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, live, JobRunning)
	a, b := live.Status(), live.Status()
	if a.Timings == b.Timings {
		t.Fatal("a live job handed out the same timings block twice")
	}
	want := *a.Timings
	*a.Timings = services.JobTimings{TotalSeconds: 42}
	for _, got := range []*services.JobTimings{live.Status().Timings, live.Trace().Timings} {
		if got.SubmittedAt != want.SubmittedAt || got.RunningAt != want.RunningAt || got.TotalSeconds == 42 {
			t.Fatalf("changing a status' copy reached the job: %+v", got)
		}
	}
	if row, _ := env.Board.Get(live.ID); row.Timings.SubmittedAt != want.SubmittedAt {
		t.Fatalf("changing a status' copy reached the board row: %+v", row.Timings)
	}
	live.Cancel()
	<-live.Done()

	done, err := env.Submit(ctx, spinJobGraph("done", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{live, done} {
		shared := j.Status().Timings
		row, _ := env.Board.Get(j.ID)
		page, _ := env.ListJobsAfter("", j.State().String(), jobsapi.Cursor{}, 10)
		if len(page) != 1 {
			t.Fatalf("listing of %s has %d rows", j.State(), len(page))
		}
		tr, _ := env.JobTrace(j.ID)
		for name, got := range map[string][2]*services.JobTimings{
			"second Status": {j.Status().Timings, shared}, "Trace": {j.Trace().Timings, shared},
			"listing row": {page[0].Timings, row.Timings}, "trace route": {tr.Timings, row.Timings},
		} {
			if got[0] != got[1] {
				t.Fatalf("%s (%s): %s carries its own timings block", j.ID, j.State(), name)
			}
		}
		if row.Timings == shared || *row.Timings != *shared {
			t.Fatalf("%s: the row's block %p %+v, the record's %p %+v", j.ID, row.Timings, *row.Timings, shared, *shared)
		}
		if shared.SubmittedAt != j.timings.SubmittedAt || shared.FinishedAt.IsZero() || shared.TotalSeconds <= 0 {
			t.Fatalf("%s: sealed block %+v", j.ID, shared)
		}
	}
	if got := env.pipe.events.Cursor(); got == 0 {
		t.Fatal("nothing was published")
	}
}

// TestTimingsRaceFree: readers copy every field of Status().Timings,
// Trace() and the board row while jobs run and terminalize — under
// -race, sealing the block in place must not race with a reader holding
// it, live or sealed.
func TestTimingsRaceFree(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 2507}})
	ctx := context.Background()
	const n = 24
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := env.Submit(ctx, spinJobGraph("race", i%4))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for settled := false; !settled; {
				settled = true
				for _, j := range jobs {
					st, tr := j.Status(), j.Trace()
					row, _ := env.Board.Get(j.ID)
					for _, tm := range []*services.JobTimings{st.Timings, tr.Timings, row.Timings} {
						if c := *tm; c.SubmittedAt.IsZero() || c.TotalSeconds < 0 {
							t.Errorf("%s: timings %+v", j.ID, c)
							return
						}
					}
					settled = settled && st.Terminal()
				}
			}
		}()
	}
	for _, j := range jobs {
		if err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// serveTrace fetches GET /v1/jobs/{id}/trace from a jobs handler.
func serveTrace(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace %s: %d %s", id, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
