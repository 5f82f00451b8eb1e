package vdce

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/testbed"
)

// jobsClient is a minimal authenticated HTTP client for the editor's
// versioned job-control surface.
type jobsClient struct {
	t     *testing.T
	base  string
	token string
}

func newJobsClient(t *testing.T, base, user, pass string) *jobsClient {
	t.Helper()
	c := &jobsClient{t: t, base: base}
	out := c.do("POST", "/login", map[string]string{"user": user, "password": pass}, http.StatusOK)
	tok, _ := out["token"].(string)
	if tok == "" {
		t.Fatalf("login returned no token: %v", out)
	}
	c.token = tok
	return c
}

// do issues one request and decodes the JSON response, asserting the
// status code.
func (c *jobsClient) do(method, path string, body any, want int) map[string]any {
	c.t.Helper()
	out, code := c.try(method, path, body)
	if code != want {
		c.t.Fatalf("%s %s = %d (want %d): %v", method, path, code, want, out)
	}
	return out
}

// try issues one request and returns the decoded response and code.
func (c *jobsClient) try(method, path string, body any) (map[string]any, int) {
	c.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

// importApp registers a soak graph and returns its app ID.
func (c *jobsClient) importApp(t *testing.T, i int) string {
	t.Helper()
	return c.importGraph(t, soakGraph(t, i))
}

// importGraph registers g through POST /apps/import and returns its app ID.
func (c *jobsClient) importGraph(t *testing.T, g *afg.Graph) string {
	t.Helper()
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", c.base+"/apps/import", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	id, _ := out["id"].(string)
	if resp.StatusCode != http.StatusCreated || id == "" {
		t.Fatalf("import = %d %v", resp.StatusCode, out)
	}
	return id
}

// submitV1 posts to the versioned submit endpoint and returns the job ID.
func (c *jobsClient) submitV1(t *testing.T, appID string, body any) string {
	t.Helper()
	out := c.do("POST", "/v1/apps/"+appID+"/submit", body, http.StatusAccepted)
	job, _ := out["job"].(map[string]any)
	id, _ := job["id"].(string)
	if id == "" {
		t.Fatalf("v1 submit returned no job id: %v", out)
	}
	return id
}

// jobStatus fetches GET /v1/jobs/{id}.
func (c *jobsClient) jobStatus(t *testing.T, id string) map[string]any {
	t.Helper()
	out := c.do("GET", "/v1/jobs/"+id, nil, http.StatusOK)
	job, _ := out["job"].(map[string]any)
	if job == nil {
		t.Fatalf("no job in response: %v", out)
	}
	return job
}

// waitState polls until the job reaches the state or the deadline hits.
func (c *jobsClient) waitState(t *testing.T, id, state string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		job := c.jobStatus(t, id)
		if job["state"] == state {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %q; last status %v", id, state, job)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPPriorityOrderingEndToEnd is the acceptance scenario: under a
// saturated admission queue, a job submitted through the editor's
// POST /v1/apps/{id}/submit with high priority completes before
// earlier-queued low-priority jobs, all observed over the HTTP surface.
func TestHTTPPriorityOrderingEndToEnd(t *testing.T) {
	env := saturatedEnv(t, 91, 0)
	ts := httptest.NewServer(env.EditorServer(0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")

	const lows = 6
	lowIDs := make([]string, 0, lows)
	for i := 0; i < lows; i++ {
		app := c.importApp(t, 1)
		lowIDs = append(lowIDs, c.submitV1(t, app, map[string]any{"priority": 1}))
	}
	app := c.importApp(t, 3)
	highID := c.submitV1(t, app, map[string]any{"priority": 100})

	// The queue is saturated: the listing shows queued jobs with
	// positions, and the high-priority job is in front of every queued
	// low-priority one.
	list := c.do("GET", "/v1/jobs?state=queued", nil, http.StatusOK)
	queued, _ := list["jobs"].([]any)
	if len(queued) < lows-2 {
		t.Fatalf("expected a saturated queue, got %d queued jobs", len(queued))
	}
	var highPos float64 = -1
	lowPositions := map[string]float64{}
	for _, item := range queued {
		job := item.(map[string]any)
		pos, _ := job["queue_position"].(float64)
		if job["id"] == highID {
			highPos = pos
		} else {
			lowPositions[job["id"].(string)] = pos
		}
	}
	for id, pos := range lowPositions {
		if highPos >= 0 && pos < highPos {
			t.Fatalf("low-priority job %s (pos %v) ahead of high-priority (pos %v)", id, pos, highPos)
		}
	}

	env.Console.Resume()
	high := c.waitState(t, highID, services.JobStateDone, 2*time.Minute)
	highFinished, err := time.Parse(time.RFC3339Nano, high["finished_at"].(string))
	if err != nil {
		t.Fatal(err)
	}
	// Every job that was still queued when the high-priority one arrived
	// must have finished after it.
	overtaken := 0
	for _, id := range lowIDs {
		low := c.waitState(t, id, services.JobStateDone, 2*time.Minute)
		lowFinished, err := time.Parse(time.RFC3339Nano, low["finished_at"].(string))
		if err != nil {
			t.Fatal(err)
		}
		if lowFinished.After(highFinished) {
			overtaken++
		}
	}
	if overtaken < lows-2 {
		t.Fatalf("high-priority HTTP submission overtook only %d of %d low-priority jobs", overtaken, lows)
	}
}

// TestHTTPCancelQueuedAndRunning exercises DELETE /v1/jobs/{id} on both
// a queued and a running job through the editor surface, plus the
// owner-authorization and pagination rules.
func TestHTTPCancelQueuedAndRunning(t *testing.T) {
	env := saturatedEnv(t, 92, 0)
	users := env.Sites[0].Repo.Users
	if _, err := users.AddUser("rival", "secret", 3, repository.DomainGlobal); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(env.EditorServer(0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")

	// First job: runs immediately and parks at the suspended console. It
	// must hold the one run slot before the backlog arrives, or the one
	// worker may pop the priority-10 job first and leave it waiting for
	// the slot in scheduling.
	runningID := c.submitV1(t, c.importApp(t, 1), nil)
	c.waitState(t, runningID, services.JobStateRunning, 30*time.Second)
	// Backlog so the next jobs stay queued.
	c.submitV1(t, c.importApp(t, 1), map[string]any{"priority": 10})
	queuedID := c.submitV1(t, c.importApp(t, 1), nil)

	// Unauthenticated and unauthorized access.
	anon := &jobsClient{t: t, base: ts.URL}
	if _, code := anon.try("GET", "/v1/jobs", nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/jobs = %d, want 401", code)
	}
	rival := newJobsClient(t, ts.URL, "rival", "secret")
	if _, code := rival.try("DELETE", "/v1/jobs/"+queuedID, nil); code != http.StatusForbidden {
		t.Fatalf("cross-owner cancel = %d, want 403", code)
	}
	if _, code := c.try("DELETE", "/v1/jobs/job-404", nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown job = %d, want 404", code)
	}

	// Cancel the queued job: it is dropped without ever starting.
	out := c.do("DELETE", "/v1/jobs/"+queuedID, nil, http.StatusOK)
	job, _ := out["job"].(map[string]any)
	if job["state"] != services.JobStateCanceled {
		t.Fatalf("canceled queued job state = %v, want canceled", job["state"])
	}

	// Cancel the running job: it aborts through the engine.
	c.do("DELETE", "/v1/jobs/"+runningID, nil, http.StatusOK)
	got := c.waitState(t, runningID, services.JobStateCanceled, 30*time.Second)
	if got["error"] == "" {
		t.Fatal("canceled running job reports no error")
	}

	// Pagination is deterministic: two cursor pages of one cover the two
	// canceled jobs without overlap, and the count-only form agrees.
	list := c.do("GET", "/v1/jobs?state=canceled&limit=1", nil, http.StatusOK)
	first, _ := list["jobs"].([]any)
	next, _ := list["next_cursor"].(string)
	if next == "" {
		t.Fatalf("first canceled page carries no next_cursor: %v", list)
	}
	list2 := c.do("GET", "/v1/jobs?state=canceled&limit=1&cursor="+next, nil, http.StatusOK)
	second, _ := list2["jobs"].([]any)
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("pagination pages = %d, %d entries; want 1 and 1", len(first), len(second))
	}
	a := first[0].(map[string]any)["id"]
	b := second[0].(map[string]any)["id"]
	if a == b {
		t.Fatalf("pagination returned the same job twice: %v", a)
	}
	count := c.do("GET", "/v1/jobs?state=canceled&limit=0", nil, http.StatusOK)
	if total, _ := count["total"].(float64); total != 2 {
		t.Fatalf("canceled total = %v, want 2", total)
	}

	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPDeadlineSubmit verifies deadline_ms flows through the v1
// submit endpoint: a queued job past its deadline never runs.
func TestHTTPDeadlineSubmit(t *testing.T) {
	env := saturatedEnv(t, 93, 0)
	ts := httptest.NewServer(env.EditorServer(0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")

	// Saturate, then submit with a deadline that expires while queued.
	c.submitV1(t, c.importApp(t, 1), map[string]any{"priority": 10})
	c.submitV1(t, c.importApp(t, 1), map[string]any{"priority": 10})
	doomedID := c.submitV1(t, c.importApp(t, 1), map[string]any{"deadline_ms": 30})
	if _, code := c.try("POST", "/v1/apps/"+c.importApp(t, 1)+"/submit",
		map[string]any{"deadline_ms": -5}); code != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms accepted: %d", code)
	}
	time.Sleep(60 * time.Millisecond)
	env.Console.Resume()
	got := c.waitState(t, doomedID, services.JobStateFailed, 2*time.Minute)
	if got["error"] == "" {
		t.Fatal("deadline-expired job reports no error")
	}
	drainCtx, cancel := contextWithTimeout(2 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPQuotaRejectionAndOwners is the quota acceptance scenario on
// the editor's owner-scoped /v1 surface: a queued-cap overflow answers
// 429 with a JSON quota error (in-flight overflow parks instead), and
// GET /v1/owners reports the caller's weight, limits, and usage
// counters matching the job board's ground truth.
func TestHTTPQuotaRejectionAndOwners(t *testing.T) {
	env := newEnv(t, Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 94},
		Pipeline: PipelineConfig{
			QueueDepth:        16,
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 1,
			Quota: QuotaConfig{
				MaxQueuedPerOwner:   2,
				MaxInFlightPerOwner: 1,
			},
		},
	})
	env.Console.Suspend()
	ts := httptest.NewServer(env.EditorServer(0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")

	// First job dispatches (owner hits the in-flight cap of 1); the next
	// two park in the queue; the fourth is over the queued cap.
	firstID := c.submitV1(t, c.importApp(t, 1), nil)
	c.waitState(t, firstID, services.JobStateRunning, 30*time.Second)
	secondID := c.submitV1(t, c.importApp(t, 1), nil)
	c.submitV1(t, c.importApp(t, 1), nil)
	out, code := c.try("POST", "/v1/apps/"+c.importApp(t, 1)+"/submit", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d %v, want 429", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "quota") {
		t.Fatalf("429 body does not mention the quota: %v", out)
	}
	// The in-flight overflow parked — it is queued, not rejected.
	if got := c.jobStatus(t, secondID)["state"]; got != services.JobStateQueued {
		t.Fatalf("in-flight overflow state = %v, want queued (parked)", got)
	}

	// /v1/owners on the owner-scoped mount: exactly the caller's row,
	// with weight from the account (user_k priority 5), the configured
	// limits, and counters matching the board's ground truth.
	owners := c.do("GET", "/v1/owners", nil, http.StatusOK)
	rows, _ := owners["owners"].([]any)
	if len(rows) != 1 {
		t.Fatalf("owner-scoped /v1/owners rows = %d, want 1: %v", len(rows), rows)
	}
	row := rows[0].(map[string]any)
	if row["owner"] != "user_k" {
		t.Fatalf("owners row = %v, want user_k", row["owner"])
	}
	if w, _ := row["weight"].(float64); w != 5 {
		t.Fatalf("owners weight = %v, want the account priority 5", row["weight"])
	}
	if mq, _ := row["max_queued"].(float64); mq != 2 {
		t.Fatalf("owners max_queued = %v, want 2", row["max_queued"])
	}
	if mi, _ := row["max_in_flight"].(float64); mi != 1 {
		t.Fatalf("owners max_in_flight = %v, want 1", row["max_in_flight"])
	}
	usage, _ := row["usage"].(map[string]any)
	truth := env.Board.OwnerUsages()["user_k"]
	if int(usage["queued"].(float64)) != truth.Queued ||
		int(usage["in_flight"].(float64)) != truth.InFlight ||
		int(usage["hosts_held"].(float64)) != truth.HostsHeld ||
		int(usage["total"].(float64)) != truth.Total {
		t.Fatalf("/v1/owners usage %v does not match JobBoard ground truth %+v", usage, truth)
	}
	if truth.Queued != 2 || truth.InFlight != 1 {
		t.Fatalf("ground truth = %+v, want 2 queued / 1 in flight", truth)
	}

	// Drain; freed quota admits again and counters return to rest.
	env.Console.Resume()
	drainCtx, cancel := contextWithTimeout(4 * time.Minute)
	defer cancel()
	if err := env.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	c.submitV1(t, c.importApp(t, 1), nil)
	drainCtx2, cancel2 := contextWithTimeout(4 * time.Minute)
	defer cancel2()
	if err := env.Drain(drainCtx2); err != nil {
		t.Fatal(err)
	}
	owners = c.do("GET", "/v1/owners", nil, http.StatusOK)
	rows, _ = owners["owners"].([]any)
	usage, _ = rows[0].(map[string]any)["usage"].(map[string]any)
	if q, inf := usage["queued"].(float64), usage["in_flight"].(float64); q != 0 || inf != 0 {
		t.Fatalf("post-drain usage = %v, want 0 queued / 0 in flight", usage)
	}
	if done, _ := usage["done"].(float64); done != 4 {
		t.Fatalf("post-drain done = %v, want 4", usage["done"])
	}
}

// contextWithTimeout is a tiny helper keeping test deadlines uniform.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

// TestEditorMountServesJobTrace: the editor's owner-scoped /v1 mount is
// the job-control API's own route table, so the trace route answers
// there with the status route's rules — the owner's job 200, another
// owner's 403, an unknown job 404 — not a mux 404.
func TestEditorMountServesJobTrace(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 2, Seed: 95}})
	if _, err := env.Sites[0].Repo.Users.AddUser("rival", "secret", 3, repository.DomainGlobal); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(env.EditorServer(0).Handler())
	defer ts.Close()
	c := newJobsClient(t, ts.URL, "user_k", "vdce")
	id := c.submitV1(t, c.importApp(t, 1), nil)
	c.waitState(t, id, services.JobStateDone, 30*time.Second)

	out := c.do("GET", "/v1/jobs/"+id+"/trace", nil, http.StatusOK)
	if events, _ := out["events"].([]any); out["id"] != id || len(events) == 0 {
		t.Fatalf("trace of %s = %v, want its lifecycle events", id, out)
	}
	rival := newJobsClient(t, ts.URL, "rival", "secret")
	if _, code := rival.try("GET", "/v1/jobs/"+id+"/trace", nil); code != http.StatusForbidden {
		t.Fatalf("another owner's trace = %d, want 403", code)
	}
	if _, code := c.try("GET", "/v1/jobs/job-404/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job's trace = %d, want 404", code)
	}
}
