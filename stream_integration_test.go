package vdce

// End-to-end coverage of the PR 6 streaming and pagination surface
// through the editor's HTTP mount: SSE watch-to-done without a single
// list poll, cursor pages tiling the canonical listing of a live seeded
// board, and the generation-cached admission position replay.

import (
	"bufio"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vdce/internal/jobsapi"
	"vdce/internal/services"
)

// sseFrames reads SSE frames off an open response body, invoking fn per
// event until the stream ends or fn returns false.
func sseFrames(t *testing.T, body *bufio.Reader, fn func(jobsapi.StreamEvent) bool) {
	t.Helper()
	var data string
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		case line == "" && data != "":
			var ev jobsapi.StreamEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			data = ""
			if !fn(ev) {
				return
			}
		}
	}
}

// TestStreamWatchJobToDone is the submit-watch-done acceptance path: a
// client submits through the editor, subscribes to the job's event
// stream, and observes queued -> ... -> done purely from pushed events —
// it never lists or polls job status.
func TestStreamWatchJobToDone(t *testing.T) {
	env := saturatedEnv(t, 95, 0)
	ts := httptest.NewServer(env.EditorServer(true, 0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	// Backlog one job so ours observably waits in the queue.
	c.submitV1(t, c.importApp(t, 1), nil)
	id := c.submitV1(t, c.importApp(t, 2), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("stream open = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	var states []string
	var sawSnapshot bool
	got := make(chan struct{})
	go func() {
		defer close(got)
		first := true
		sseFrames(t, bufio.NewReader(resp.Body), func(ev jobsapi.StreamEvent) bool {
			if first {
				first = false
				sawSnapshot = ev.Type == jobsapi.EventSnapshot
				// The subscription precedes the release below, so the first
				// frame must be the pre-release snapshot: still waiting.
				if ev.Job.Terminal() {
					t.Errorf("first frame already terminal: %+v", ev.Job)
				}
			}
			if len(states) == 0 || states[len(states)-1] != ev.Job.State {
				states = append(states, ev.Job.State)
			}
			return !ev.Job.Terminal()
		})
	}()

	// Only after the subscription is live does the backlog move.
	env.Console.Resume()
	select {
	case <-got:
	case <-ctx.Done():
		t.Fatal("stream never reached a terminal event")
	}
	if !sawSnapshot {
		t.Error("stream did not open with a snapshot event")
	}
	if len(states) == 0 || states[len(states)-1] != services.JobStateDone {
		t.Fatalf("streamed states = %v, want a sequence ending in done", states)
	}

	drainCtx, cancelDrain := contextWithTimeout(2 * time.Minute)
	defer cancelDrain()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestCursorPagesTileCanonicalListing tiles one live seeded board with
// keyset pages over HTTP and requires exactly the rows, in the order,
// that the environment's canonical listing holds.
func TestCursorPagesTileCanonicalListing(t *testing.T) {
	env := saturatedEnv(t, 96, 0)
	ts := httptest.NewServer(env.EditorServer(true, 0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	const jobsN = 11
	for i := 0; i < jobsN; i++ {
		c.submitV1(t, c.importApp(t, i), nil)
	}

	var viaCursor []string
	cursor := ""
	for {
		path := "/v1/jobs?limit=3"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		out := c.do("GET", path, nil, http.StatusOK)
		for _, item := range out["jobs"].([]any) {
			viaCursor = append(viaCursor, item.(map[string]any)["id"].(string))
		}
		cursor, _ = out["next_cursor"].(string)
		if cursor == "" {
			break
		}
	}

	canonical := env.Jobs()
	if len(canonical) != jobsN || len(viaCursor) != jobsN {
		t.Fatalf("pages covered %d rows, canonical listing has %d, submitted %d", len(viaCursor), len(canonical), jobsN)
	}
	for i, s := range canonical {
		if viaCursor[i] != s.ID {
			t.Fatalf("row %d = %s via cursor, canonical %s", i, viaCursor[i], s.ID)
		}
	}

	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestQueuePositionCacheMatchesReplay pins the generation-validated
// position cache (satellite of PR 6) against the ground-truth replay:
// cached and freshly replayed positions are identical, repeated reads
// reuse the cached map, and any queue mutation invalidates it.
func TestQueuePositionCacheMatchesReplay(t *testing.T) {
	env := saturatedEnv(t, 97, 0)
	ctx := context.Background()
	for i := 0; i < 9; i++ {
		if _, err := env.Submit(ctx, soakGraph(t, i), WithPriority(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	q := env.pipe.admit

	p1 := q.positions()
	p2 := q.positions()
	if reflect.ValueOf(p1).Pointer() != reflect.ValueOf(p2).Pointer() {
		t.Fatal("unchanged queue recomputed the position replay (cache miss)")
	}
	q.mu.Lock()
	fresh := q.replayPositions()
	q.mu.Unlock()
	if !maps.Equal(p1, fresh) {
		t.Fatalf("cached positions %v != fresh replay %v", p1, fresh)
	}
	// The single-job surface serves from the same cache.
	for id, pos := range fresh {
		if got := q.position(id); got != pos {
			t.Fatalf("position(%s) = %d, want %d", id, got, pos)
		}
	}

	// Mutation invalidates: cancel the queued job at the back.
	var victim string
	for id, pos := range fresh {
		if pos == len(fresh) {
			victim = id
		}
	}
	if victim == "" {
		t.Fatalf("no job at position %d in %v", len(fresh), fresh)
	}
	if err := env.CancelJob(victim); err != nil {
		t.Fatal(err)
	}
	p3 := q.positions()
	if reflect.ValueOf(p3).Pointer() == reflect.ValueOf(p1).Pointer() {
		t.Fatal("queue mutation did not invalidate the position cache")
	}
	if _, ok := p3[victim]; ok {
		t.Fatalf("canceled job %s still has a queue position", victim)
	}
	if !maps.Equal(p3, func() map[string]int { q.mu.Lock(); defer q.mu.Unlock(); return q.replayPositions() }()) {
		t.Fatal("post-mutation cache disagrees with a fresh replay")
	}

	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}
