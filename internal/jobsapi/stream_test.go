package jobsapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vdce/internal/services"
)

// streamConn is one open SSE connection under test.
type streamConn struct {
	resp *http.Response
	rd   *bufio.Reader
}

// openStream starts an SSE request; lastEventID zero omits the header.
func openStream(t *testing.T, url, user string, lastEventID uint64) *streamConn {
	t.Helper()
	return openStreamCtx(t, context.Background(), url, user, lastEventID)
}

// openStreamCtx is openStream with the request bound to ctx.
func openStreamCtx(t *testing.T, ctx context.Context, url, user string, lastEventID uint64) *streamConn {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-User", user)
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		t.Fatalf("stream open = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content type = %q", ct)
	}
	return &streamConn{resp: resp, rd: bufio.NewReader(resp.Body)}
}

func (c *streamConn) close() { c.resp.Body.Close() }

// next reads one SSE frame (skipping comments), failing the test on
// timeout via the connection's deadline-free read being wrapped by the
// caller's test timeout.
func (c *streamConn) next(t *testing.T) (StreamEvent, bool) {
	t.Helper()
	var ev StreamEvent
	haveData := false
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return StreamEvent{}, false
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if haveData {
				return ev, true
			}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			if ev.Cursor != 0 && ev.Cursor != id {
				t.Fatalf("id line %d disagrees with pending frame %d", id, ev.Cursor)
			}
		case strings.HasPrefix(line, "event: "):
			// Checked against the decoded body below.
			typ := line[7:]
			defer func() {
				if haveData && ev.Type != typ {
					t.Fatalf("event line %q disagrees with body type %q", typ, ev.Type)
				}
			}()
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[6:]), &ev); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			haveData = true
		case strings.HasPrefix(line, ":"):
			// comment
		}
	}
}

// newStreamAPI wires a handler with a live broker over a single job.
func newStreamAPI(t *testing.T) (*httptest.Server, *fakeSource, *Broker) {
	t.Helper()
	src := &fakeSource{jobs: []services.JobStatus{{
		ID: "job-1", App: "app", Owner: "ana",
		State: services.JobStateQueued, SubmittedAt: time.Unix(1000, 0),
	}}}
	broker := NewBroker(64)
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Events: broker,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
	}))
	t.Cleanup(ts.Close)
	return ts, src, broker
}

// TestJobEventsSubscribeThenPublish pins the subscribe-then-submit
// ordering guarantee: a client that subscribes first sees the initial
// snapshot, then every subsequent transition in publish order, and the
// stream ends by itself at the terminal event.
func TestJobEventsSubscribeThenPublish(t *testing.T) {
	ts, src, broker := newStreamAPI(t)
	conn := openStream(t, ts.URL+"/v1/jobs/job-1/events", "ana", 0)
	defer conn.close()

	snap, ok := conn.next(t)
	if !ok || snap.Type != EventSnapshot || snap.Job.State != services.JobStateQueued {
		t.Fatalf("first frame = %+v ok=%v, want queued snapshot", snap, ok)
	}

	states := []string{services.JobStateScheduling, services.JobStateRunning, services.JobStateDone}
	for _, st := range states {
		s := src.jobs[0]
		s.State = st
		src.jobs[0] = s
		broker.Publish(EventState, s)
	}
	for _, want := range states {
		ev, ok := conn.next(t)
		if !ok {
			t.Fatalf("stream ended before %s", want)
		}
		if ev.Type != EventState || ev.Job.State != want {
			t.Fatalf("frame = %s/%s, want state/%s", ev.Type, ev.Job.State, want)
		}
	}
	// Terminal event ends the stream server-side.
	if ev, ok := conn.next(t); ok {
		t.Fatalf("stream continued past terminal with %+v", ev)
	}
}

// TestJobEventsReconnectResumesWithoutLoss drops the connection mid-
// stream and reconnects with Last-Event-ID: the replayed continuation
// has no gap and no duplicate.
func TestJobEventsReconnectResumesWithoutLoss(t *testing.T) {
	ts, src, broker := newStreamAPI(t)
	conn := openStream(t, ts.URL+"/v1/jobs/job-1/events", "ana", 0)
	if _, ok := conn.next(t); !ok { // snapshot
		t.Fatal("no snapshot")
	}
	publish := func(st string) services.JobStatus {
		s := src.jobs[0]
		s.State = st
		src.jobs[0] = s
		broker.Publish(EventState, s)
		return s
	}
	publish(services.JobStateScheduling)
	first, ok := conn.next(t)
	if !ok || first.Job.State != services.JobStateScheduling {
		t.Fatalf("first live frame = %+v", first)
	}
	// Drop the connection; transitions keep landing while disconnected.
	conn.close()
	publish(services.JobStateRunning)
	publish(services.JobStateDone)

	re := openStream(t, ts.URL+"/v1/jobs/job-1/events", "ana", first.Cursor)
	defer re.close()
	var got []string
	lastCursor := first.Cursor
	for {
		ev, ok := re.next(t)
		if !ok {
			break
		}
		if ev.Cursor <= lastCursor {
			t.Fatalf("resume replayed cursor %d after %d (duplicate)", ev.Cursor, lastCursor)
		}
		if ev.Cursor != lastCursor+1 {
			t.Fatalf("resume skipped from %d to %d (gap)", lastCursor, ev.Cursor)
		}
		lastCursor = ev.Cursor
		got = append(got, ev.Job.State)
	}
	want := []string{services.JobStateRunning, services.JobStateDone}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("resumed states = %v, want %v", got, want)
	}
}

// racingSource publishes its job's terminal event from inside the
// second Job call — the per-job stream's snapshot read; the first is
// the existence check — and returns the status it read before, as a
// board read racing the job's last transition does.
type racingSource struct {
	*fakeSource
	events *Broker
	calls  atomic.Int32
}

func (r *racingSource) Job(id string) (services.JobStatus, bool) {
	s, ok := r.fakeSource.Job(id)
	if r.calls.Add(1) == 2 {
		done := s
		done.State = services.JobStateDone
		r.events.Publish(EventState, done)
	}
	return s, ok
}

// TestSnapshotRacingTheTerminalEvent: an event that lands between the
// subscription and the snapshot's read must still follow the snapshot
// with a higher id, so that a client resuming at the snapshot's id gets
// it. Stamping the snapshot with the broker's cursor read after the
// snapshot gave both the same id, and such a resume waited forever.
func TestSnapshotRacingTheTerminalEvent(t *testing.T) {
	broker := NewBroker(64)
	queued := services.JobStatus{ID: "job-1", App: "app", Owner: "ana",
		State: services.JobStateQueued, SubmittedAt: time.Unix(1000, 0)}
	broker.Publish(EventState, queued) // the snapshot's id is then not 0
	src := &racingSource{fakeSource: &fakeSource{jobs: []services.JobStatus{queued}}, events: broker}
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Events: broker,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	conn := openStreamCtx(t, ctx, ts.URL+"/v1/jobs/job-1/events", "ana", 0)
	snap, ok := conn.next(t)
	if !ok || snap.Type != EventSnapshot {
		t.Fatalf("first frame = %+v ok=%v, want the snapshot", snap, ok)
	}
	last, ok := conn.next(t)
	conn.close()
	if !ok || last.Job.State != services.JobStateDone {
		t.Fatalf("frame after the snapshot = %+v ok=%v, want the terminal event", last, ok)
	}
	if last.Cursor <= snap.Cursor {
		t.Fatalf("terminal event id %d after snapshot id %d: ids must rise", last.Cursor, snap.Cursor)
	}

	re := openStreamCtx(t, ctx, ts.URL+"/v1/jobs/job-1/events", "ana", snap.Cursor)
	defer re.close()
	ev, ok := re.next(t)
	if !ok || ev.Cursor != last.Cursor || ev.Job.State != services.JobStateDone {
		t.Fatalf("resume at the snapshot's id %d = %+v ok=%v, want the terminal event %d", snap.Cursor, ev, ok, last.Cursor)
	}
	if ev, ok := re.next(t); ok {
		t.Fatalf("resumed stream continued past the terminal event with %+v", ev)
	}
}

// TestFirehoseFiltersAndScoping: the site-wide stream honors the owner
// filter, and owner-scoped mounts force it to the caller.
func TestFirehoseFiltersAndScoping(t *testing.T) {
	src := &fakeSource{}
	broker := NewBroker(64)
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Events: broker,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
		OwnerScoped: true,
	}))
	t.Cleanup(ts.Close)

	// bo asks for ana's events; the scoped mount pins the filter to bo.
	conn := openStream(t, ts.URL+"/v1/events?owner=ana", "bo", 0)
	defer conn.close()
	broker.Publish(EventState, services.JobStatus{ID: "job-1", Owner: "ana", State: services.JobStateQueued})
	broker.Publish(EventState, services.JobStatus{ID: "job-2", Owner: "bo", State: services.JobStateQueued})
	ev, ok := conn.next(t)
	if !ok || ev.Job.Owner != "bo" {
		t.Fatalf("scoped firehose delivered %+v, want bo's event only", ev)
	}
}

// TestPerOwnerRateLimit pins the 429 contract: an owner over its token
// bucket is throttled with Retry-After while other owners proceed, and
// /v1/owners surfaces the budget and the throttle count.
func TestPerOwnerRateLimit(t *testing.T) {
	src := &fakeSource{jobs: []services.JobStatus{{
		ID: "job-1", Owner: "ana", State: services.JobStateDone, SubmittedAt: time.Unix(1000, 0),
	}}}
	limiter := newRateLimiter(RateLimitConfig{RequestsPerSecond: 1, Burst: 2}, nil)
	ts := httptest.NewServer(Config{
		Source: src,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
	}.mux(limiter))
	t.Cleanup(ts.Close)

	get := func(user string) (int, http.Header, map[string]any) {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs", nil)
		req.Header.Set("X-User", user)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, resp.Header, body
	}

	// The test spends tokens at instants an hour ahead of the wall clock
	// the mux reads: a request served after them refills nothing, so the
	// balances below are exact however slowly the requests run.
	ahead := time.Now().Add(time.Hour)
	// Burst of 2, then the bucket is empty.
	for i := 0; i < 2; i++ {
		if rerr := limiter.allow("ana", ahead); rerr != nil {
			t.Fatalf("request %d = %v, want allowed", i, rerr)
		}
	}
	code, hdr, body := get("ana")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if body["resource"] != "api-requests" || body["owner"] != "ana" {
		t.Fatalf("429 body = %v, want QuotaError-style fields", body)
	}
	// Another owner's bucket is untouched.
	if code, _, _ := get("bo"); code != http.StatusOK {
		t.Fatalf("other owner = %d, want 200", code)
	}
	// Refill restores service.
	if rerr := limiter.allow("ana", ahead.Add(3*time.Second)); rerr != nil {
		t.Fatalf("after refill = %v, want allowed", rerr)
	}
	// /v1/owners reports the budget and the throttle count.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/owners", nil)
	req.Header.Set("X-User", "ana")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Owners []services.OwnerStatus `json:"owners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range out.Owners {
		if o.Owner == "ana" {
			found = true
			if o.RateRPS != 1 || o.RateBurst != 2 || o.RateThrottled != 1 {
				t.Fatalf("ana's rate row = rps %g burst %d throttled %d, want 1/2/1",
					o.RateRPS, o.RateBurst, o.RateThrottled)
			}
		}
	}
	if !found {
		t.Fatal("owners listing has no row for ana")
	}
}

// sharedOwnersSource returns the same backing slice from every Owners
// call, the shape that made the owners[:0] reslice bug observable.
type sharedOwnersSource struct {
	*fakeSource
	owners []services.OwnerStatus
}

func (s *sharedOwnersSource) Owners() []services.OwnerStatus { return s.owners }

// TestScopedOwnersDoesNotMutateSourceSlice is the regression test for
// the handleOwners filter: filtering the caller's row out of the
// source's listing must not compact rows in place over the source's
// backing array.
func TestScopedOwnersDoesNotMutateSourceSlice(t *testing.T) {
	src := &sharedOwnersSource{
		fakeSource: &fakeSource{},
		owners: []services.OwnerStatus{
			{Owner: "ana", Weight: 1},
			{Owner: "bo", Weight: 2},
			{Owner: "cy", Weight: 3},
		},
	}
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
		OwnerScoped: true,
	}))
	t.Cleanup(ts.Close)

	// bo's scoped view is just bo...
	req, _ := http.NewRequest("GET", ts.URL+"/v1/owners", nil)
	req.Header.Set("X-User", "bo")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Owners []services.OwnerStatus `json:"owners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Owners) != 1 || out.Owners[0].Owner != "bo" {
		t.Fatalf("scoped owners = %+v, want just bo", out.Owners)
	}
	// ...and the source's slice is untouched (the old owners[:0] filter
	// compacted bo into ana's slot here).
	for i, want := range []string{"ana", "bo", "cy"} {
		if src.owners[i].Owner != want {
			t.Fatalf("source owners[%d] = %q after scoped request, want %q (backing array mutated)",
				i, src.owners[i].Owner, want)
		}
	}
}

// TestJobEventsRequiresBrokerAnd404s: streaming without a broker is 503,
// unknown jobs are 404 before the stream opens.
func TestJobEventsRequiresBrokerAnd404s(t *testing.T) {
	ts, _ := newTestAPI(t, 2, false)
	if _, code := call(t, ts, "GET", "/v1/jobs/job-1/events", "ana"); code != http.StatusServiceUnavailable {
		t.Fatalf("events without broker = %d, want 503", code)
	}
	tsb, _, _ := newStreamAPI(t)
	if _, code := call(t, tsb, "GET", "/v1/jobs/job-404/events", "ana"); code != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", code)
	}
	if _, code := call(t, tsb, "GET", fmt.Sprintf("/v1/jobs/job-1/events?after=%s", "x"), "ana"); code != http.StatusBadRequest {
		t.Fatalf("bad after cursor = %d, want 400", code)
	}
}
