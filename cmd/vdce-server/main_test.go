package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"vdce/internal/services"
	"vdce/internal/tasklib"
)

// startServer runs the server on an ephemeral port and returns its base
// URL once it is serving.
func startServer(t *testing.T, extraArgs ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	args := append([]string{"-http", "127.0.0.1:0", "-hosts", "2", "-groups", "1"}, extraArgs...)
	var out strings.Builder
	go func() {
		errCh <- run(ctx, args, &out, func(addr string) { addrCh <- addr })
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Errorf("server exited with %v\noutput:\n%s", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Error("server did not shut down")
		}
	})
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case err := <-errCh:
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never reported its address")
	}
	return ""
}

func login(t *testing.T, base string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": "user_k", "password": "vdce"})
	resp, err := http.Post(base+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Token == "" {
		t.Fatal("login returned no token")
	}
	return out.Token
}

func TestServerServesSubmissionsAndJobs(t *testing.T) {
	base := startServer(t, "-workers", "2", "-parallel", "2")
	token := login(t, base)

	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	do := func(method, path string, body []byte) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %d %v", method, path, resp.StatusCode, out)
		}
		return out
	}

	imported := do("POST", "/apps/import", data)
	id, _ := imported["id"].(string)
	if id == "" {
		t.Fatalf("import failed: %v", imported)
	}
	// Jobs run through the versioned submit only; the sync route is the
	// schedule-only server's.
	accepted := do("POST", fmt.Sprintf("/v1/apps/%s/submit", id), nil)
	job, _ := accepted["job"].(map[string]any)
	jobID, _ := job["id"].(string)
	if jobID == "" {
		t.Fatalf("submission returned no job: %v", accepted)
	}
	// The job's event stream ends with its terminal event.
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s/events: %d", jobID, resp.StatusCode)
	}
	last := ""
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		data, ok := strings.CutPrefix(sc.Text(), "data:")
		if !ok {
			continue
		}
		var ev struct {
			Job struct {
				State string `json:"state"`
			} `json:"job"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("event frame %q: %v", data, err)
		}
		last = ev.Job.State
	}
	if last != services.JobStateDone {
		t.Fatalf("stream ended with state %q, want done", last)
	}

	// The job-control API reflects the executed submission: one done row
	// on the listing, and the same answer from the count-only form.
	list := do("GET", "/v1/jobs", nil)
	jobs, _ := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("/v1/jobs lists %d jobs, want 1: %v", len(jobs), list)
	}
	if state := jobs[0].(map[string]any)["state"]; state != services.JobStateDone {
		t.Fatalf("listed job is %v, want done", state)
	}
	if count := do("GET", "/v1/jobs?limit=0&state=done", nil); count["total"] != float64(1) {
		t.Fatalf("count-only listing = %v, want total 1", count)
	}
}

// TestServerServesJobControlAPI drives the versioned surface end to
// end over the server binary: async v1 submission with priority, job
// listing with filters, and cancellation.
func TestServerServesJobControlAPI(t *testing.T) {
	base := startServer(t, "-workers", "2", "-parallel", "2")
	token := login(t, base)

	do := func(method, path string, body []byte, want int) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != want {
			t.Fatalf("%s %s: %d (want %d) %v", method, path, resp.StatusCode, want, out)
		}
		return out
	}

	g, err := tasklib.BuildC3IPipeline(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	imported := do("POST", "/apps/import", data, http.StatusCreated)
	appID, _ := imported["id"].(string)

	body, _ := json.Marshal(map[string]any{"priority": 7})
	accepted := do("POST", fmt.Sprintf("/v1/apps/%s/submit", appID), body, http.StatusAccepted)
	job, _ := accepted["job"].(map[string]any)
	jobID, _ := job["id"].(string)
	if jobID == "" {
		t.Fatalf("v1 submit returned no job: %v", accepted)
	}
	if prio, _ := job["priority"].(float64); prio != 7 {
		t.Fatalf("job priority = %v, want 7", job["priority"])
	}

	deadline := time.Now().Add(time.Minute)
	for {
		got := do("GET", "/v1/jobs/"+jobID, nil, http.StatusOK)
		state, _ := got["job"].(map[string]any)["state"].(string)
		if state == "done" {
			break
		}
		if state == "failed" || state == "canceled" {
			t.Fatalf("job ended %s: %v", state, got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %v", jobID, got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	list := do("GET", "/v1/jobs?owner=user_k&state=done", nil, http.StatusOK)
	jobs, _ := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("filtered listing = %v", list)
	}
	// Unauthenticated requests are rejected.
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /v1/jobs = %d, want 401", resp.StatusCode)
	}
	// The job's lifecycle trace is served here too, and the mount is the
	// site-wide one: owner administration, which an owner-scoped editor
	// mount refuses with 403, is allowed.
	if tr := do("GET", "/v1/jobs/"+jobID+"/trace", nil, http.StatusOK); tr["id"] != jobID {
		t.Fatalf("trace = %v, want job %s", tr, jobID)
	}
	do("PATCH", "/v1/owners/user_k", []byte(`{"weight":7}`), http.StatusOK)
	// Canceling a finished job is a no-op that reports the final state.
	final := do("DELETE", "/v1/jobs/"+jobID, nil, http.StatusOK)
	if state, _ := final["job"].(map[string]any)["state"].(string); state != "done" {
		t.Fatalf("cancel of finished job reports %q, want done", state)
	}
}

func TestServerRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-no-such-flag"}, &out, nil); err == nil {
		t.Error("unknown flag accepted")
	}
}
