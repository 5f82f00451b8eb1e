package jobsapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vdce/internal/services"
)

// The reference for every status answer is what this package emitted
// while it still encoded through encoding/json: json.Encoder over a
// tagged page struct or a {"job": …} map, and a Fprintf'd SSE frame
// around json.Marshal of the event.

// refListResponse is the tagged page struct handleList used to encode.
type refListResponse struct {
	Jobs       []services.JobStatus `json:"jobs"`
	Limit      int                  `json:"limit"`
	NextCursor string               `json:"next_cursor,omitempty"`
	Total      *int                 `json:"total,omitempty"`
}

func refEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func refFrame(t *testing.T, ev StreamEvent) []byte {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Cursor, ev.Type, data))
}

// wireStatuses is a small board with every optional field in play.
func wireStatuses() []services.JobStatus {
	t0 := time.Date(2026, 9, 28, 9, 0, 0, 987654321, time.FixedZone("", -7*3600))
	var out []services.JobStatus
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		s := services.JobStatus{
			ID: fmt.Sprintf("job-%d", i+1), App: "c3i <8>", Owner: "ana", State: services.JobStateDone,
			Priority: i, ShareWeight: 1 + i, SubmittedAt: at, StartedAt: at.Add(time.Millisecond),
			FinishedAt: at.Add(3 * time.Millisecond),
			Timings: &services.JobTimings{
				SubmittedAt: at, AdmittedAt: at.Add(9 * time.Microsecond), RunningAt: at.Add(time.Millisecond),
				FinishedAt: at.Add(3 * time.Millisecond), SubmitWaitSeconds: 9e-6, RunSeconds: 0.002, TotalSeconds: 0.003,
			},
		}
		switch i {
		case 1:
			s.State, s.Error = services.JobStateFailed, `exec: task "LU" failed & gave up`
			s.Reschedules, s.FailedHosts, s.Recovered = 2, []string{"h-2", "h-1"}, true
		case 2:
			s.State, s.QueuePosition, s.Timings = services.JobStateQueued, 3, nil
			s.StartedAt, s.FinishedAt = time.Time{}, time.Time{}
			s.Labels = map[string]string{"team": "radar", "env": "prod"}
			s.Deadline = at.Add(time.Hour)
		case 3:
			s.State, s.HostsHeld, s.FinishedAt = services.JobStateRunning, 4, time.Time{}
		}
		out = append(out, s)
	}
	return out
}

func wireAPI(t *testing.T, broker *Broker) (*httptest.Server, *fakeSource) {
	t.Helper()
	src := &fakeSource{jobs: wireStatuses()}
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Events: broker,
		Authenticate: func(r *http.Request) (string, bool) {
			return "ana", true
		},
	}))
	t.Cleanup(ts.Close)
	return ts, src
}

func fetch(t *testing.T, method, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d", method, url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s content type %q", method, url, ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStatusAnswersAreByteStable: every JSON answer carrying a status —
// cursor pages (first, middle, last), the count-only form, GET and
// DELETE of one job — is byte for byte the reflective rendering.
func TestStatusAnswersAreByteStable(t *testing.T) {
	ts, src := wireAPI(t, nil)
	all := src.matching("", "")
	intp := func(v int) *int { return &v }
	for _, tc := range []struct {
		name, path string
		want       refListResponse
	}{
		{"first page", "/v1/jobs?limit=2",
			refListResponse{Jobs: all[:2], Limit: 2, NextCursor: CursorOf(all[1]).Encode()}},
		{"middle page", "/v1/jobs?limit=2&cursor=" + CursorOf(all[1]).Encode(),
			refListResponse{Jobs: all[2:4], Limit: 2, NextCursor: CursorOf(all[3]).Encode()}},
		{"last page", "/v1/jobs?limit=2&cursor=" + CursorOf(all[3]).Encode(),
			refListResponse{Jobs: all[4:], Limit: 2}},
		{"default limit", "/v1/jobs", refListResponse{Jobs: all, Limit: DefaultLimit}},
		{"empty page", "/v1/jobs?owner=nobody", refListResponse{Jobs: []services.JobStatus{}, Limit: DefaultLimit}},
		{"count only", "/v1/jobs?limit=0&state=done",
			refListResponse{Jobs: []services.JobStatus{}, Limit: 0, Total: intp(2)}},
	} {
		if got, want := fetch(t, "GET", ts.URL+tc.path), refEncode(t, tc.want); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
	for _, s := range all {
		want := refEncode(t, map[string]any{"job": s})
		if got := fetch(t, "GET", ts.URL+"/v1/jobs/"+s.ID); !bytes.Equal(got, want) {
			t.Errorf("GET %s:\n got %s\nwant %s", s.ID, got, want)
		}
		if got := fetch(t, "DELETE", ts.URL+"/v1/jobs/"+s.ID); !bytes.Equal(got, want) {
			t.Errorf("DELETE %s:\n got %s\nwant %s", s.ID, got, want)
		}
	}
}

// TestSSEFramesAreByteStable reads raw frames off a per-job stream —
// the synthesized snapshot, a typed recovery event, the terminal state
// event — and compares each to the Fprintf'd reference.
func TestSSEFramesAreByteStable(t *testing.T) {
	broker := NewBroker(16)
	ts, src := wireAPI(t, broker)
	running := src.jobs[3]
	resp, err := http.Get(ts.URL + "/v1/jobs/" + running.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	failed := running
	failed.Reschedules, failed.FailedHosts = 1, []string{"h <3>"}
	done := failed
	done.State, done.FinishedAt = services.JobStateDone, running.StartedAt.Add(time.Second)
	want := [][]byte{
		refFrame(t, StreamEvent{Cursor: 0, Type: EventSnapshot, Job: running}),
		refFrame(t, StreamEvent{Cursor: 1, Type: EventHostFailure, Job: failed}),
		refFrame(t, StreamEvent{Cursor: 2, Type: EventState, Job: done}),
	}
	// The snapshot frame proves the subscription is registered.
	got := make([]byte, len(want[0]))
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatal(err)
	}
	broker.Publish(EventHostFailure, failed)
	broker.Publish(EventState, done)
	rest, err := io.ReadAll(resp.Body) // the stream ends at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	if all := append(got, rest...); !bytes.Equal(all, bytes.Join(want, nil)) {
		t.Fatalf("frames:\n got %q\nwant %q", all, bytes.Join(want, nil))
	}
}

func TestStreamEventAppendJSONMatchesEncodingJSON(t *testing.T) {
	for i, s := range append(wireStatuses(), services.JobStatus{}) {
		for _, typ := range []string{EventState, EventSnapshot, "odd <type>\n"} {
			ev := StreamEvent{Cursor: uint64(i) << 40, Type: typ, Job: s}
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			got := ev.AppendJSON(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("got %s\nwant %s", got, want)
			}
			var back, ref StreamEvent
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &ref); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, ref) {
				t.Fatalf("decoded %+v, reference %+v", back, ref)
			}
		}
	}
}

func TestCursorEncodeIsStable(t *testing.T) {
	for _, c := range []Cursor{
		{}, {Submitted: 1, ID: "job-1"}, {Submitted: -5, ID: ""},
		{Submitted: 1790598645123456789, ID: "job-123456"},
		{Submitted: 7, ID: strings.Repeat("long-id:", 20)},
	} {
		// The token has always been base64url of "%d:%s".
		want := base64.RawURLEncoding.EncodeToString([]byte(fmt.Sprintf("%d:%s", c.Submitted, c.ID)))
		if got := c.Encode(); got != want {
			t.Fatalf("Encode(%+v) = %q, want %q", c, got, want)
		}
		if got := string(c.appendToken([]byte("x"))); got != "x"+want {
			t.Fatalf("appendToken after a prefix = %q", got)
		}
		if back, err := DecodeCursor(want); err != nil || back != c {
			t.Fatalf("%+v round trips to %+v, %v", c, back, err)
		}
	}
}

// discardFlusher is a ResponseWriter that keeps nothing.
type discardFlusher struct{ h http.Header }

func (d discardFlusher) Header() http.Header         { return d.h }
func (d discardFlusher) Write(b []byte) (int, error) { return len(b), nil }
func (d discardFlusher) WriteHeader(int)             {}
func (d discardFlusher) Flush()                      {}

// TestSSEFrameAllocFree: once a connection's frame buffer has grown to
// fit, emitting an event allocates nothing — no Marshal, no Fprintf.
func TestSSEFrameAllocFree(t *testing.T) {
	out, ok := newSSEWriter(discardFlusher{h: make(http.Header)})
	if !ok {
		t.Fatal("discardFlusher is a Flusher")
	}
	events := make([]StreamEvent, 0, 8)
	for i, s := range wireStatuses() {
		events = append(events, StreamEvent{Cursor: uint64(1000 + i), Type: EventState, Job: s})
	}
	emit := func() {
		for _, ev := range events {
			if err := out.event(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	emit() // grow the buffer
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Fatalf("%d steady-state frames allocate %.1f times, want 0", len(events), allocs)
	}
}
