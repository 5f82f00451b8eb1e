package editor

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

// jobEditor is an editor whose v1 submit hands every graph to got and
// answers with status.
func jobEditor(t *testing.T, status services.JobStatus, got func(*afg.Graph)) *client {
	t.Helper()
	users := repository.NewUserAccountsDB()
	if _, err := users.AddUser("user_k", "pw", 3, repository.DomainGlobal); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(users, tasklib.Default(), nil)
	srv.SubmitJob = func(_ context.Context, _ string, g *afg.Graph, _ JobOptions) (services.JobStatus, error) {
		got(g)
		return status, nil
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := &client{t: t, base: ts.URL}
	login(c)
	return c
}

func (c *client) importApp(g *afg.Graph) string {
	c.t.Helper()
	return c.do("POST", "/apps/import", g, 201)["id"].(string)
}

// post sends one authenticated POST with a raw body and returns the
// answer undecoded. It reports with Errorf, so goroutines other than the
// test's own may call it.
func (c *client) post(path string, body io.Reader) (code int, contentType string, data []byte) {
	req, err := http.NewRequest("POST", c.base+path, body)
	if err != nil {
		c.t.Error(err)
		return 0, "", nil
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Error(err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		c.t.Error(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

func c3i(t *testing.T) *afg.Graph {
	t.Helper()
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSubmitsShareOneFrozenGraph: an unedited application is copied and
// validated once; every submission hands the pipeline that same graph.
// An edit leaves graphs already handed out untouched and the next submit
// sees it.
func TestSubmitsShareOneFrozenGraph(t *testing.T) {
	var seen []*afg.Graph
	c := jobEditor(t, services.JobStatus{ID: "job-1"}, func(g *afg.Graph) { seen = append(seen, g) })
	app := c.importApp(c3i(t))

	for i := 0; i < 5; i++ {
		c.do("POST", "/v1/apps/"+app+"/submit", nil, 202)
	}
	for i, g := range seen {
		if g != seen[0] {
			t.Fatalf("submit %d received its own copy of an unedited application", i)
		}
	}
	inFlight := seen[0]
	before, err := inFlight.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	tasks := len(inFlight.Tasks)

	// Each kind of edit drops the frozen graph.
	edits := []func(){
		func() { c.do("POST", "/apps/"+app+"/tasks", map[string]string{"name": "Spin"}, 201) },
		func() {
			c.do("POST", "/apps/"+app+"/props", map[string]any{"task": 0, "props": afg.Properties{Mode: afg.Parallel, Nodes: 3}}, 200)
		},
		func() {
			c.do("POST", "/apps/"+app+"/tasks", map[string]string{"name": "Matrix_Generate"}, 201)
			c.do("POST", "/apps/"+app+"/tasks", map[string]string{"name": "LU_Decomposition"}, 201)
			c.do("POST", "/apps/"+app+"/edges", map[string]any{"from": tasks + 1, "to": tasks + 2}, 201)
		},
	}
	for i, edit := range edits {
		prev := seen[len(seen)-1]
		edit()
		c.do("POST", "/v1/apps/"+app+"/submit", nil, 202)
		next := seen[len(seen)-1]
		if next == prev {
			t.Fatalf("edit %d: submit after an edit reused the stale frozen graph", i)
		}
		if len(next.Tasks) <= len(prev.Tasks) && i != 1 {
			t.Fatalf("edit %d: next submit does not see the edit (%d tasks)", i, len(next.Tasks))
		}
	}
	if got := seen[len(seen)-3].Task(0).Props; got.Mode == afg.Parallel {
		t.Fatal("props edit leaked into the graph frozen before it")
	}
	if got := seen[len(seen)-2].Task(0).Props; got.Mode != afg.Parallel || got.Nodes != 3 {
		t.Fatalf("submit after the props edit carries %+v", got)
	}
	after, err := inFlight.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("edits changed a graph already handed to the pipeline")
	}
	if err := seen[len(seen)-1].Validate(); err != nil {
		t.Fatalf("frozen graph is not valid: %v", err)
	}
}

// TestConcurrentEditAndSubmit races edits against submissions (run with
// -race): every graph the pipeline receives is valid, internally
// consistent, and never mutated afterwards.
func TestConcurrentEditAndSubmit(t *testing.T) {
	var mu sync.Mutex
	type handed struct {
		g     *afg.Graph
		tasks int
	}
	var seen []handed
	c := jobEditor(t, services.JobStatus{ID: "job-1"}, func(g *afg.Graph) {
		if err := g.Validate(); err != nil {
			t.Errorf("pipeline handed an invalid graph: %v", err)
		}
		mu.Lock()
		seen = append(seen, handed{g, len(g.Tasks)})
		mu.Unlock()
	})
	app := c.importApp(c3i(t))

	post := func(path, body string, want int) {
		if code, _, _ := c.post(path, strings.NewReader(body)); code != want {
			t.Errorf("POST %s = %d, want %d", path, code, want)
		}
	}
	const editors, submitters, rounds = 2, 4, 25
	var wg sync.WaitGroup
	for e := 0; e < editors; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				post("/apps/"+app+"/tasks", `{"name":"Spin"}`, 201)
			}
		}()
	}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				post("/v1/apps/"+app+"/submit", "", 202)
			}
		}()
	}
	wg.Wait()
	c.do("POST", "/v1/apps/"+app+"/submit", nil, 202)

	if len(seen) != submitters*rounds+1 {
		t.Fatalf("%d graphs handed over, want %d", len(seen), submitters*rounds+1)
	}
	for i, h := range seen {
		if len(h.g.Tasks) != h.tasks {
			t.Fatalf("graph %d grew from %d to %d tasks after it was handed over", i, h.tasks, len(h.g.Tasks))
		}
	}
	if last, want := seen[len(seen)-1].tasks, len(c3i(t).Tasks)+editors*rounds; last != want {
		t.Fatalf("final submit sees %d tasks, want %d", last, want)
	}
}

// TestSubmitAnswerIsByteStable: the 202 body is what json.Encoder wrote
// for {"job": status} before the status got its own wire form.
func TestSubmitAnswerIsByteStable(t *testing.T) {
	at := time.Date(2026, 9, 28, 10, 0, 0, 5, time.UTC)
	status := services.JobStatus{
		ID: "job-7", App: "c3i <8>", Owner: "user_k", State: services.JobStateQueued,
		Priority: 3, ShareWeight: 3, QueuePosition: 2, SubmittedAt: at, Deadline: at.Add(time.Minute),
		Labels:  map[string]string{"b": "2", "a": "1"},
		Timings: &services.JobTimings{SubmittedAt: at},
	}
	c := jobEditor(t, status, func(*afg.Graph) {})
	app := c.importApp(c3i(t))
	code, contentType, got := c.post("/v1/apps/"+app+"/submit", strings.NewReader(`{"priority": 3}`))
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]any{"job": status}); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusAccepted || contentType != "application/json" {
		t.Fatalf("status %d, content type %q", code, contentType)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("submit answer\n got %s\nwant %s", got, want.Bytes())
	}
}

// TestRequestBodiesAreBounded: a body over MaxBodyBytes is 413 on every
// endpoint that reads one, a truncated or malformed one is 400, and an
// import just under the limit still goes through.
func TestRequestBodiesAreBounded(t *testing.T) {
	c := jobEditor(t, services.JobStatus{}, func(*afg.Graph) {})
	app := c.importApp(c3i(t))
	post := func(path string, body io.Reader) int {
		t.Helper()
		code, _, data := c.post(path, body)
		var out struct {
			Error string `json:"error"`
		}
		if code >= 400 {
			if err := json.Unmarshal(data, &out); err != nil || out.Error == "" {
				t.Fatalf("POST %s = %d without an error body (%v)", path, code, err)
			}
		}
		return code
	}
	// Valid JSON all the way, so only the size can be what is refused.
	huge := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"name":"`), strings.NewReader(strings.Repeat("x", MaxBodyBytes)), strings.NewReader(`"}`))
	}
	for _, path := range []string{
		"/apps/import", "/apps", "/login", "/apps/" + app + "/tasks", "/apps/" + app + "/edges",
		"/apps/" + app + "/props", "/v1/apps/" + app + "/submit",
	} {
		if code := post(path, huge()); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413", path, MaxBodyBytes+11, code)
		}
	}
	if code := post("/apps/import", strings.NewReader(`{"name":"cut","tasks":[`)); code != http.StatusBadRequest {
		t.Errorf("truncated import = %d, want 400", code)
	}
	if code := post("/apps/import", strings.NewReader(`not json`)); code != http.StatusBadRequest {
		t.Errorf("malformed import = %d, want 400", code)
	}
	// A legitimate large graph: padded with whitespace to just under the limit.
	g, err := c3i(t).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	padded := io.MultiReader(bytes.NewReader(g), strings.NewReader(strings.Repeat(" ", MaxBodyBytes-len(g))))
	if code := post("/apps/import", padded); code != http.StatusCreated {
		t.Errorf("import of exactly MaxBodyBytes = %d, want 201", code)
	}
}
