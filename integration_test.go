package vdce

// Cross-module integration tests: the full user journey over HTTP, the
// prediction feedback loop across runs, and concurrent application
// executions sharing one environment.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/sim"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// TestFullHTTPJourney drives login → browse libraries → build →
// properties → submit-with-execution over the real editor HTTP API
// against a live environment.
func TestFullHTTPJourney(t *testing.T) {
	env, err := New(Config{
		Testbed: testbed.Config{Sites: 2, HostsPerGroup: 3, Seed: 61},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ts := httptest.NewServer(env.EditorServer(true, 1).Handler())
	defer ts.Close()

	call := func(method, path, token string, body any, want int) map[string]any {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(method, ts.URL+path, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d (want %d): %v", method, path, resp.StatusCode, want, out)
		}
		return out
	}

	token := call("POST", "/login", "", map[string]string{"user": "user_k", "password": "vdce"}, 200)["token"].(string)
	libs := call("GET", "/libraries", token, nil, 200)["libraries"].([]any)
	if len(libs) != 4 {
		t.Fatalf("libraries = %v", libs)
	}
	appID := call("POST", "/apps", token, map[string]string{"name": "http-journey"}, 201)["id"].(string)
	add := func(name string) int {
		out := call("POST", "/apps/"+appID+"/tasks", token, map[string]string{"name": name}, 201)
		return int(out["task"].(float64))
	}
	gen := add("Matrix_Generate")
	chk := add("Checksum")
	call("POST", "/apps/"+appID+"/props", token,
		map[string]any{"task": gen, "props": afg.Properties{Args: map[string]string{"n": "16"}}}, 200)
	call("POST", "/apps/"+appID+"/edges", token,
		map[string]any{"from": gen, "to": chk, "size_bytes": 2048}, 201)
	// Jobs run through the versioned submit; the sync route belongs to the
	// schedule-only editor and refuses on an executing one.
	call("POST", "/apps/"+appID+"/submit", token, nil, 503)
	job := call("POST", "/v1/apps/"+appID+"/submit", token, nil, 202)["job"].(map[string]any)
	jobID := job["id"].(string)
	jc := &jobsClient{t: t, base: ts.URL, token: token}
	done := jc.waitState(t, jobID, services.JobStateDone, time.Minute)
	if done["app"] != "http-journey" || done["owner"] != "user_k" {
		t.Fatalf("finished job = %v", done)
	}
	// An HTTP submission has no handle to hold a result, so check what a
	// client or operator sees: the row's sealed timings show a run, and the
	// trace ends running -> done.
	if s, ok := env.Job(jobID); !ok || s.Timings == nil || s.Timings.RunSeconds <= 0 {
		t.Fatalf("row = %+v (found %v), want a run", s, ok)
	}
	tr, ok := env.JobTrace(jobID)
	if n := len(tr.Events); !ok || n < 2 || tr.Events[n-2].Event != "running" || tr.Events[n-1].Event != "done" {
		t.Fatalf("trace = %+v (found %v), want running -> done", tr, ok)
	}
}

// TestFeedbackImprovesPlacement shows the calibration loop end to end: a
// host whose real behavior is far worse than its catalog parameters
// loses its placements once measured execution times flow back.
func TestFeedbackImprovesPlacement(t *testing.T) {
	repo := repository.New("s1")
	for _, h := range []struct {
		name  string
		speed float64
	}{{"liar", 4}, {"honest", 2}} {
		if err := repo.Resources.AddHost(repository.ResourceInfo{
			HostName: h.name, ArchType: "SUN", OSType: "Solaris",
			TotalMem: 1 << 30, Site: "s1", SpeedFactor: h.speed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tasklib.Default().InstallInto(repo, []string{"liar", "honest"}); err != nil {
		t.Fatal(err)
	}
	site := core.NewLocalSite(repo)
	g := afg.NewGraph("probe")
	id := g.AddTask("Matrix_Multiplication", "matrix", 2, 1)
	sel, err := site.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if sel[id].Hosts[0] != "liar" {
		t.Fatalf("cold selection picked %v, catalog says liar is 2x faster", sel[id].Hosts)
	}
	// Reality disagrees: executions on "liar" take 10x the base time.
	params, _ := repo.TaskPerf.Params("Matrix_Multiplication")
	base := params.BaseTime
	for i := 0; i < 4; i++ {
		if _, err := repo.TaskPerf.RecordExecutions([]repository.Execution{{Task: "Matrix_Multiplication", Host: "liar", Elapsed: 10 * base, At: time.Now()}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sel2, err := site.HostSelection(g)
	if err != nil {
		t.Fatal(err)
	}
	if sel2[id].Hosts[0] != "honest" {
		t.Fatalf("feedback ignored: still picking %v", sel2[id].Hosts)
	}
}

// TestConcurrentApplications executes several applications at once on a
// shared environment — the multi-user situation a VDCE server faces.
func TestConcurrentApplications(t *testing.T) {
	env, err := New(Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 4, Seed: 63}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var g *afg.Graph
			var err error
			if i%2 == 0 {
				g, err = tasklib.BuildC3IPipeline(8+i, int64(i))
			} else {
				g, err = tasklib.BuildLinearEquationSolver(16+i, int64(i))
				if err == nil {
					for _, task := range g.Tasks {
						task.Props.MachineType = ""
					}
				}
			}
			if err != nil {
				errs <- err
				return
			}
			if _, _, err := env.Run(context.Background(), g, 1); err != nil {
				errs <- fmt.Errorf("app %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSimAgreesWithDirection sanity-checks that the simulated makespan
// of a scheduled LES tracks the allocation's critical work: it must be
// at least the largest single predicted task and at most the serial sum
// plus transfers.
func TestSimAgreesWithDirection(t *testing.T) {
	env, err := New(Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 4, Seed: 64}})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	g, err := tasklib.BuildLinearEquationSolver(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
	table, err := env.Schedule(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.New([]string{env.TB.Sites[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, table, net)
	if err != nil {
		t.Fatal(err)
	}
	var longest, serial time.Duration
	for _, e := range table.Entries {
		serial += e.Predicted + e.TransferIn
		if e.Predicted > longest {
			longest = e.Predicted
		}
	}
	if res.Makespan < longest || res.Makespan > serial+time.Second {
		t.Fatalf("makespan %v outside [%v, %v]", res.Makespan, longest, serial)
	}
}
