package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vdce"
	"vdce/internal/editor"
	"vdce/internal/testbed"
)

// newEditorServer spins an in-process VDCE environment plus its editor
// HTTP API for the client to talk to.
func newEditorServer(t *testing.T) (*httptest.Server, *vdce.Environment) {
	t.Helper()
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	srv := httptest.NewServer(env.EditorServer(0).Handler())
	t.Cleanup(srv.Close)
	return srv, env
}

// TestRunSubmitsBuiltinApp: one copy of a built-in app is submitted,
// confirmed and watched to done.
func TestRunSubmitsBuiltinApp(t *testing.T) {
	srv, _ := newEditorServer(t)
	var out strings.Builder
	err := run([]string{"-server", srv.URL, "-app", "c3i", "-n", "6"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "submitted") {
		t.Errorf("no submission confirmation in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), " done") {
		t.Errorf("no done transition in output:\n%s", out.String())
	}
}

// TestRunFailsOnBareUnavailable: a 503 with neither Retry-After nor a
// shed_reason is no overload shed, so the client neither retries nor
// looks for another route — it fails after exactly one submit request.
func TestRunFailsOnBareUnavailable(t *testing.T) {
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	// An editor with no job pipeline answers every submit with a bare 503.
	h := editor.NewServer(env.Sites[0].Repo.Users, env.Registry, nil).Handler()
	var submits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "POST" && strings.HasSuffix(r.URL.Path, "/submit") {
			submits.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	var out strings.Builder
	if err := run([]string{"-server", srv.URL, "-app", "c3i", "-n", "6"}, &out); err == nil {
		t.Fatalf("run succeeded against a bare 503:\n%s", out.String())
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("%d submit requests, want exactly 1:\n%s", n, out.String())
	}
}

func TestRunSubmitsConcurrentCopies(t *testing.T) {
	srv, _ := newEditorServer(t)
	var out strings.Builder
	err := run([]string{"-server", srv.URL, "-app", "c3i", "-n", "6", "-count", "4", "-priority", "8"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if n := strings.Count(got, "submitted"); n != 4 {
		t.Errorf("confirmed %d submissions, want 4:\n%s", n, got)
	}
	// Async submissions surface their pipeline job IDs, priorities, and
	// final state transitions.
	if !strings.Contains(got, "(priority 8)") {
		t.Errorf("submission reported no priority:\n%s", got)
	}
	if strings.Count(got, " done") != 4 {
		t.Errorf("expected 4 done transitions:\n%s", got)
	}
}

// TestRunExitsNonZeroOnCanceledJob pins the failure contract: a job that
// does not end done (here: its deadline expires while the environment's
// console is suspended) makes run return an error.
func TestRunExitsNonZeroOnCanceledJob(t *testing.T) {
	srv, env := newEditorServer(t)
	env.Console.Suspend()
	defer env.Console.Resume()
	var out strings.Builder
	err := run([]string{"-server", srv.URL, "-app", "c3i", "-n", "6", "-deadline", "50ms"}, &out)
	if err == nil {
		t.Fatalf("run succeeded despite expired deadline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "failed") {
		t.Errorf("no failure transition in output:\n%s", out.String())
	}
}

// TestRunRendersQuotaRejectionDistinctly pins the 429 path: a server
// enforcing a per-owner queued cap rejects the overflow copy, and the
// client reports it as a quota rejection (not a job failure) while
// still exiting non-zero.
func TestRunRendersQuotaRejectionDistinctly(t *testing.T) {
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 12},
		Pipeline: vdce.PipelineConfig{
			SchedulerWorkers:  1,
			MaxConcurrentRuns: 1,
			Quota:             vdce.QuotaConfig{MaxQueuedPerOwner: 1, MaxInFlightPerOwner: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	srv := httptest.NewServer(env.EditorServer(0).Handler())
	t.Cleanup(srv.Close)
	// Suspend the console so nothing completes while the 6 copies
	// submit: the first occupies the single in-flight slot, the second
	// the single queued slot, the rest overflow to 429s. The timed
	// resume then lets the two accepted jobs finish so their watchers
	// (and run itself) return.
	env.Console.Suspend()
	timer := time.AfterFunc(2*time.Second, env.Console.Resume)
	defer timer.Stop()
	defer env.Console.Resume()

	var out strings.Builder
	err = run([]string{"-server", srv.URL, "-app", "c3i", "-n", "6", "-count", "6", "-weight", "2"}, &out)
	if err == nil {
		t.Fatalf("run succeeded despite quota overflow:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "owner quota exceeded") {
		t.Errorf("error %q does not name the quota", err)
	}
	if !strings.Contains(out.String(), "rejected by owner quota") {
		t.Errorf("no distinct quota rendering in output:\n%s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-app", "no-such-app"}, &out); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run([]string{"-count", "0"}, &out); err == nil {
		t.Error("count 0 accepted")
	}
	if err := run([]string{"-file", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunFailsOnBadCredentials(t *testing.T) {
	srv, _ := newEditorServer(t)
	var out strings.Builder
	if err := run([]string{"-server", srv.URL, "-user", "ghost", "-pass", "nope", "-app", "c3i", "-n", "6"}, &out); err == nil {
		t.Error("bad credentials accepted")
	}
}
