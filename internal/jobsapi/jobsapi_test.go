package jobsapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"vdce/internal/services"
)

// fakeSource is an in-memory Source over a fixed job set.
type fakeSource struct {
	jobs     []services.JobStatus
	canceled []string
	// updates records UpdateOwner calls (owner name and the update).
	updates map[string]services.OwnerUpdate
}

// matching returns the filtered jobs in canonical order.
func (f *fakeSource) matching(owner, state string) []services.JobStatus {
	out := make([]services.JobStatus, 0, len(f.jobs))
	for _, s := range f.jobs {
		if s.Matches(owner, state) {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return CursorOf(out[i]).Less(CursorOf(out[j])) })
	return out
}

func (f *fakeSource) CountJobs(owner, state string) int { return len(f.matching(owner, state)) }

// ListJobsAfter is the keyset page over the canonical order (O(n) is
// fine for a test fixture).
func (f *fakeSource) ListJobsAfter(owner, state string, after Cursor, limit int) ([]services.JobStatus, bool) {
	all := f.matching(owner, state)
	out := make([]services.JobStatus, 0, limit)
	for _, s := range all {
		if !after.Less(CursorOf(s)) {
			continue
		}
		if len(out) == limit {
			return out, true
		}
		out = append(out, s)
	}
	return out, false
}

func (f *fakeSource) Job(id string) (services.JobStatus, bool) {
	for _, s := range f.jobs {
		if s.ID == id {
			return s, true
		}
	}
	return services.JobStatus{}, false
}

func (f *fakeSource) CancelJob(id string) error {
	if _, ok := f.Job(id); !ok {
		return errors.New("unknown job")
	}
	f.canceled = append(f.canceled, id)
	return nil
}

// Owners derives per-owner usage from the fixed job set, weight 1 for
// everyone, no quota limits.
func (f *fakeSource) Owners() []services.OwnerStatus {
	usage := make(map[string]services.OwnerUsage)
	var names []string
	for _, s := range f.jobs {
		u, ok := usage[s.Owner]
		if !ok {
			names = append(names, s.Owner)
		}
		switch s.State {
		case services.JobStateQueued:
			u.Queued++
		case services.JobStateScheduling, services.JobStateRunning:
			u.InFlight++
		case services.JobStateDone:
			u.Done++
		}
		u.Total++
		usage[s.Owner] = u
	}
	sort.Strings(names)
	out := make([]services.OwnerStatus, 0, len(names))
	for _, n := range names {
		out = append(out, services.OwnerStatus{Owner: n, Weight: 1, Usage: usage[n]})
	}
	return out
}

// UpdateOwner records the change and echoes it back as a status row.
func (f *fakeSource) UpdateOwner(owner string, upd services.OwnerUpdate) (services.OwnerStatus, error) {
	if upd.Empty() {
		return services.OwnerStatus{}, errors.New("empty owner update")
	}
	if f.updates == nil {
		f.updates = make(map[string]services.OwnerUpdate)
	}
	f.updates[owner] = upd
	s := services.OwnerStatus{Owner: owner, Weight: 1}
	if upd.Weight != nil {
		s.Weight = *upd.Weight
		s.WeightPinned = true
	}
	if upd.MaxQueued != nil {
		s.MaxQueued = *upd.MaxQueued
	}
	if upd.MaxInFlight != nil {
		s.MaxInFlight = *upd.MaxInFlight
	}
	if upd.MaxHosts != nil {
		s.MaxHosts = *upd.MaxHosts
	}
	return s, nil
}

// Hosts reports one healthy host.
func (f *fakeSource) Hosts() []services.HostStatus {
	return []services.HostStatus{{Host: "h0", Site: "s0", Up: true, Breaker: "closed"}}
}

// JobTrace answers a one-stamp trace for every known job.
func (f *fakeSource) JobTrace(id string) (services.JobTrace, bool) {
	s, ok := f.Job(id)
	if !ok {
		return services.JobTrace{}, false
	}
	return services.JobTrace{ID: id, Events: []services.TraceEvent{{At: s.SubmittedAt, Event: services.PhaseSubmitted}}}, true
}

func newTestAPI(t *testing.T, n int, ownerScoped bool) (*httptest.Server, *fakeSource) {
	t.Helper()
	src := &fakeSource{}
	t0 := time.Unix(1000, 0)
	for i := 1; i <= n; i++ {
		owner := "ana"
		if i%2 == 0 {
			owner = "bo"
		}
		state := services.JobStateQueued
		if i <= n/2 {
			state = services.JobStateDone
		}
		src.jobs = append(src.jobs, services.JobStatus{
			ID: fmt.Sprintf("job-%d", i), App: "app", Owner: owner,
			State: state, SubmittedAt: t0.Add(time.Duration(i) * time.Second),
		})
	}
	ts := httptest.NewServer(Handler(Config{
		Source: src,
		Authenticate: func(r *http.Request) (string, bool) {
			u := r.Header.Get("X-User")
			return u, u != ""
		},
		OwnerScoped: ownerScoped,
	}))
	t.Cleanup(ts.Close)
	return ts, src
}

func call(t *testing.T, ts *httptest.Server, method, path, user string) (map[string]any, int) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

func TestListPaginationAndFilters(t *testing.T) {
	ts, _ := newTestAPI(t, 10, false)

	out, code := call(t, ts, "GET", "/v1/jobs", "ana")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if rows := out["jobs"].([]any); len(rows) != 10 {
		t.Fatalf("default list returned %d rows, want 10", len(rows))
	}
	if _, hasTotal := out["total"]; hasTotal {
		t.Fatalf("cursor-mode list carries total (O(board) to compute): %v", out)
	}

	// Cursor pages of 3 tile the set without overlap, in stable order,
	// with next_cursor absent on the final page.
	var seen []string
	cursor := ""
	for page := 0; page < 5 && (page == 0 || cursor != ""); page++ {
		out, _ := call(t, ts, "GET", "/v1/jobs?limit=3&cursor="+cursor, "ana")
		for _, item := range out["jobs"].([]any) {
			seen = append(seen, item.(map[string]any)["id"].(string))
		}
		cursor, _ = out["next_cursor"].(string)
	}
	if cursor != "" {
		t.Fatalf("listing never exhausted; dangling cursor %q", cursor)
	}
	if len(seen) != 10 {
		t.Fatalf("cursor pages covered %d jobs, want 10: %v", len(seen), seen)
	}
	for i, id := range seen {
		if want := fmt.Sprintf("job-%d", i+1); id != want {
			t.Fatalf("cursor page order[%d] = %s, want %s", i, id, want)
		}
	}

	// Explicit limit=0 is the count-only idiom: no rows, just Total.
	out, _ = call(t, ts, "GET", "/v1/jobs?limit=0", "ana")
	if rows := out["jobs"].([]any); len(rows) != 0 {
		t.Fatalf("limit=0 returned %d rows, want 0", len(rows))
	}
	if total := out["total"].(float64); total != 10 {
		t.Fatalf("limit=0 total = %v, want 10", total)
	}

	// Bad pagination values are rejected.
	if _, code := call(t, ts, "GET", "/v1/jobs?limit=-1", "ana"); code != http.StatusBadRequest {
		t.Fatalf("negative limit = %d, want 400", code)
	}
	if _, code := call(t, ts, "GET", fmt.Sprintf("/v1/jobs?limit=%d", MaxLimit+1), "ana"); code != http.StatusBadRequest {
		t.Fatalf("limit over MaxLimit = %d, want 400 (not a silent clamp)", code)
	}
	if _, code := call(t, ts, "GET", "/v1/jobs?cursor=%25%25not-base64", "ana"); code != http.StatusBadRequest {
		t.Fatalf("malformed cursor = %d, want 400", code)
	}

	// Filters pass through to the source.
	out, _ = call(t, ts, "GET", "/v1/jobs?owner=bo&state=queued", "ana")
	for _, item := range out["jobs"].([]any) {
		job := item.(map[string]any)
		if job["owner"] != "bo" || job["state"] != services.JobStateQueued {
			t.Fatalf("filtered listing leaked %v", job)
		}
	}
}

func TestGetAndAuth(t *testing.T) {
	ts, _ := newTestAPI(t, 3, false)
	if _, code := call(t, ts, "GET", "/v1/jobs", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated list = %d, want 401", code)
	}
	out, code := call(t, ts, "GET", "/v1/jobs/job-2", "ana")
	if code != http.StatusOK || out["job"].(map[string]any)["id"] != "job-2" {
		t.Fatalf("get = %d %v", code, out)
	}
	if _, code := call(t, ts, "GET", "/v1/jobs/job-404", "ana"); code != http.StatusNotFound {
		t.Fatalf("get unknown = %d, want 404", code)
	}
}

// TestHostsAndTraceEndpoints: both routes are part of every mount, and
// the trace follows the status endpoint's authorization.
func TestHostsAndTraceEndpoints(t *testing.T) {
	ts, _ := newTestAPI(t, 4, true)
	out, code := call(t, ts, "GET", "/v1/hosts", "ana")
	if hosts, _ := out["hosts"].([]any); code != http.StatusOK || len(hosts) != 1 {
		t.Fatalf("GET /v1/hosts = %d %v, want 200 with one host", code, out)
	}
	out, code = call(t, ts, "GET", "/v1/jobs/job-1/trace", "ana")
	if events, _ := out["events"].([]any); code != http.StatusOK || out["id"] != "job-1" || len(events) != 1 {
		t.Fatalf("own trace = %d %v, want 200 with one event", code, out)
	}
	if _, code := call(t, ts, "GET", "/v1/jobs/job-2/trace", "ana"); code != http.StatusForbidden {
		t.Fatalf("another owner's trace on a scoped mount = %d, want 403", code)
	}
	if _, code := call(t, ts, "GET", "/v1/jobs/job-99/trace", "ana"); code != http.StatusNotFound {
		t.Fatalf("unknown job's trace = %d, want 404", code)
	}
	if _, code := call(t, ts, "GET", "/v1/hosts", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated hosts = %d, want 401", code)
	}
}

func TestOwnersEndpoint(t *testing.T) {
	// Unscoped: every owner's row, sorted, with usage matching the jobs.
	ts, src := newTestAPI(t, 10, false)
	if _, code := call(t, ts, "GET", "/v1/owners", ""); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated owners = %d, want 401", code)
	}
	out, code := call(t, ts, "GET", "/v1/owners", "ana")
	if code != http.StatusOK {
		t.Fatalf("owners = %d", code)
	}
	rows, _ := out["owners"].([]any)
	want := src.Owners()
	if len(rows) != len(want) {
		t.Fatalf("owners rows = %d, want %d", len(rows), len(want))
	}
	for i, item := range rows {
		row := item.(map[string]any)
		if row["owner"] != want[i].Owner {
			t.Fatalf("owners[%d] = %v, want %s", i, row["owner"], want[i].Owner)
		}
		usage := row["usage"].(map[string]any)
		if int(usage["queued"].(float64)) != want[i].Usage.Queued ||
			int(usage["total"].(float64)) != want[i].Usage.Total {
			t.Fatalf("owners[%d] usage %v does not match source %+v", i, usage, want[i].Usage)
		}
	}

	// Owner-scoped: only the caller's row, even for users with no jobs.
	ts2, _ := newTestAPI(t, 10, true)
	out, _ = call(t, ts2, "GET", "/v1/owners", "bo")
	rows, _ = out["owners"].([]any)
	if len(rows) != 1 || rows[0].(map[string]any)["owner"] != "bo" {
		t.Fatalf("scoped owners = %v, want just bo", rows)
	}
	out, _ = call(t, ts2, "GET", "/v1/owners", "stranger")
	if rows, _ := out["owners"].([]any); len(rows) != 0 {
		t.Fatalf("scoped owners for a jobless user = %v, want empty", rows)
	}
}

func TestCancelOwnerScoping(t *testing.T) {
	// Unscoped: any authenticated user cancels any job.
	ts, src := newTestAPI(t, 4, false)
	if _, code := call(t, ts, "DELETE", "/v1/jobs/job-1", "bo"); code != http.StatusOK {
		t.Fatalf("unscoped cross-owner cancel = %d, want 200", code)
	}
	if len(src.canceled) != 1 || src.canceled[0] != "job-1" {
		t.Fatalf("canceled = %v", src.canceled)
	}

	// Owner-scoped: the whole surface narrows to the caller's own jobs.
	ts2, src2 := newTestAPI(t, 4, true)
	if _, code := call(t, ts2, "DELETE", "/v1/jobs/job-1", "bo"); code != http.StatusForbidden {
		t.Fatalf("scoped cross-owner cancel = %d, want 403", code)
	}
	if out, code := call(t, ts2, "DELETE", "/v1/jobs/job-1", "bo"); code == http.StatusForbidden {
		if msg, _ := out["error"].(string); strings.Contains(msg, "ana") {
			t.Fatalf("403 leaks the job owner's name: %q", msg)
		}
	}
	if _, code := call(t, ts2, "GET", "/v1/jobs/job-1", "bo"); code != http.StatusForbidden {
		t.Fatalf("scoped cross-owner get = %d, want 403", code)
	}
	// Scoped listings ignore the owner query parameter entirely.
	out, _ := call(t, ts2, "GET", "/v1/jobs?owner=ana", "bo")
	for _, item := range out["jobs"].([]any) {
		if job := item.(map[string]any); job["owner"] != "bo" {
			t.Fatalf("scoped listing leaked %v", job)
		}
	}
	if _, code := call(t, ts2, "DELETE", "/v1/jobs/job-1", "ana"); code != http.StatusOK {
		t.Fatalf("scoped owner cancel = %d, want 200", code)
	}
	if len(src2.canceled) != 1 || src2.canceled[0] != "job-1" {
		t.Fatalf("canceled = %v", src2.canceled)
	}
	if _, code := call(t, ts2, "DELETE", "/v1/jobs/job-404", "ana"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}
}

// callBody is call with a JSON request body, for the PATCH surface.
func callBody(t *testing.T, ts *httptest.Server, method, path, user, body string) (map[string]any, int) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if user != "" {
		req.Header.Set("X-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

func TestOwnerPatch(t *testing.T) {
	ts, src := newTestAPI(t, 2, false)

	out, code := callBody(t, ts, "PATCH", "/v1/owners/ana", "admin",
		`{"weight": 7, "max_queued": 2, "max_hosts": 3}`)
	if code != http.StatusOK {
		t.Fatalf("patch = %d: %v", code, out)
	}
	row, _ := out["owner"].(map[string]any)
	if row["weight"] != float64(7) || row["weight_pinned"] != true {
		t.Fatalf("patched owner = %v, want pinned weight 7", row)
	}
	upd, ok := src.updates["ana"]
	if !ok || upd.Weight == nil || *upd.Weight != 7 ||
		upd.MaxQueued == nil || *upd.MaxQueued != 2 ||
		upd.MaxHosts == nil || *upd.MaxHosts != 3 || upd.MaxInFlight != nil {
		t.Fatalf("source saw update %+v", upd)
	}

	// An empty patch is a bad request, not a silent no-op.
	if _, code := callBody(t, ts, "PATCH", "/v1/owners/ana", "admin", `{}`); code != http.StatusBadRequest {
		t.Fatalf("empty patch = %d, want 400", code)
	}
	// Unknown fields are rejected so typos cannot read as no-ops.
	if _, code := callBody(t, ts, "PATCH", "/v1/owners/ana", "admin",
		`{"wieght": 7}`); code != http.StatusBadRequest {
		t.Fatalf("unknown-field patch = %d, want 400", code)
	}
	// Unauthenticated callers get 401 like the rest of the surface.
	if _, code := callBody(t, ts, "PATCH", "/v1/owners/ana", "",
		`{"weight": 2}`); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated patch = %d, want 401", code)
	}

	// The owner-scoped (editor) mount keeps the admin surface read-only.
	ts2, src2 := newTestAPI(t, 2, true)
	if _, code := callBody(t, ts2, "PATCH", "/v1/owners/ana", "ana",
		`{"weight": 2}`); code != http.StatusForbidden {
		t.Fatalf("owner-scoped patch = %d, want 403", code)
	}
	if len(src2.updates) != 0 {
		t.Fatalf("owner-scoped mount applied updates: %v", src2.updates)
	}
}
