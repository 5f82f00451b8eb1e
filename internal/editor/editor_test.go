package editor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"vdce/internal/afg"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

type client struct {
	t     *testing.T
	base  string
	token string
}

func (c *client) do(method, path string, body any, wantCode int) map[string]any {
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
	if resp.StatusCode != wantCode {
		c.t.Fatalf("%s %s: status %d (want %d): %v", method, path, resp.StatusCode, wantCode, out)
	}
	return out
}

func newEditor(t *testing.T, submit JobSubmitter) *client {
	t.Helper()
	users := repository.NewUserAccountsDB()
	if _, err := users.AddUser("user_k", "pw", 3, repository.DomainGlobal); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(users, tasklib.Default(), submit)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &client{t: t, base: ts.URL}
}

func login(c *client) {
	out := c.do("POST", "/login", map[string]string{"user": "user_k", "password": "pw"}, 200)
	c.token = out["token"].(string)
	if c.token == "" {
		c.t.Fatal("empty token")
	}
}

func TestLoginFlow(t *testing.T) {
	c := newEditor(t, nil)
	// Wrong password rejected.
	c.do("POST", "/login", map[string]string{"user": "user_k", "password": "no"}, 401)
	// Unauthenticated API calls rejected.
	c.do("GET", "/libraries", nil, 401)
	login(c)
	out := c.do("GET", "/libraries", nil, 200)
	libs := out["libraries"].([]any)
	if len(libs) != 4 {
		t.Fatalf("libraries = %v", libs)
	}
}

func TestLibraryMenus(t *testing.T) {
	c := newEditor(t, nil)
	login(c)
	out := c.do("GET", "/libraries/matrix", nil, 200)
	tasks := out["tasks"].([]any)
	found := false
	for _, ti := range tasks {
		if ti.(map[string]any)["name"] == "LU_Decomposition" {
			found = true
		}
	}
	if !found {
		t.Fatal("matrix menu missing LU_Decomposition")
	}
	c.do("GET", "/libraries/nope", nil, 404)
}

func TestBuildAndSubmitApplication(t *testing.T) {
	var submitted *afg.Graph
	c := newEditor(t, func(_ context.Context, owner string, g *afg.Graph, _ JobOptions) (services.JobStatus, error) {
		if owner != "user_k" {
			t.Errorf("owner = %q", owner)
		}
		submitted = g
		return services.JobStatus{ID: "job-1", App: g.Name, Owner: owner, State: services.JobStateQueued}, nil
	})
	login(c)

	out := c.do("POST", "/apps", map[string]string{"name": "LES"}, 201)
	appID := out["id"].(string)

	addTask := func(name string) int {
		r := c.do("POST", fmt.Sprintf("/apps/%s/tasks", appID), map[string]string{"name": name}, 201)
		return int(r["task"].(float64))
	}
	gen := addTask("Matrix_Generate")
	lu := addTask("LU_Decomposition")
	c.do("POST", fmt.Sprintf("/apps/%s/edges", appID),
		map[string]any{"from": gen, "from_port": 0, "to": lu, "to_port": 0, "size_bytes": 4096}, 201)
	c.do("POST", fmt.Sprintf("/apps/%s/props", appID),
		map[string]any{"task": lu, "props": afg.Properties{Mode: afg.Parallel, Nodes: 2}}, 200)

	// The graph is visible and carries the properties.
	got := c.do("GET", "/apps/"+appID, nil, 200)
	if got["name"] != "LES" {
		t.Fatalf("app graph = %v", got)
	}

	c.do("POST", fmt.Sprintf("/v1/apps/%s/submit", appID), nil, 202)
	if submitted == nil || len(submitted.Tasks) != 2 {
		t.Fatal("submit did not deliver the graph")
	}
	if submitted.Task(afg.TaskID(lu)).Props.Nodes != 2 {
		t.Fatal("properties lost on submit")
	}
}

func TestEditorValidation(t *testing.T) {
	c := newEditor(t, nil)
	login(c)
	// Unknown app.
	c.do("GET", "/apps/app-99", nil, 404)
	// Create, then exercise error paths.
	out := c.do("POST", "/apps", map[string]string{"name": "x"}, 201)
	id := out["id"].(string)
	c.do("POST", "/apps/"+id+"/tasks", map[string]string{"name": "No_Such"}, 404)
	c.do("POST", "/apps", map[string]string{}, 400) // empty name
	// Bad edge (no tasks yet).
	c.do("POST", "/apps/"+id+"/edges", map[string]any{"from": 0, "to": 1}, 400)
	// Bad props target.
	c.do("POST", "/apps/"+id+"/props", map[string]any{"task": 7}, 400)
	// Submit with no job pipeline → validation first (empty graph = 400).
	c.do("POST", "/v1/apps/"+id+"/submit", nil, 400)
	// With one task but no JobSubmitter → 503.
	c.do("POST", "/apps/"+id+"/tasks", map[string]string{"name": "Spin"}, 201)
	c.do("POST", "/v1/apps/"+id+"/submit", nil, 503)
}

func TestAppOwnershipIsolation(t *testing.T) {
	users := repository.NewUserAccountsDB()
	for _, u := range []string{"alice", "bob"} {
		if _, err := users.AddUser(u, "pw", 0, repository.DomainLocal); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(users, tasklib.Default(), nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	alice := &client{t: t, base: ts.URL}
	out := alice.do("POST", "/login", map[string]string{"user": "alice", "password": "pw"}, 200)
	alice.token = out["token"].(string)
	bob := &client{t: t, base: ts.URL}
	out = bob.do("POST", "/login", map[string]string{"user": "bob", "password": "pw"}, 200)
	bob.token = out["token"].(string)

	created := alice.do("POST", "/apps", map[string]string{"name": "private"}, 201)
	id := created["id"].(string)
	// Bob cannot see or modify Alice's application.
	bob.do("GET", "/apps/"+id, nil, 404)
	bob.do("POST", "/apps/"+id+"/tasks", map[string]string{"name": "Spin"}, 404)
}

func TestListAndDeleteApps(t *testing.T) {
	c := newEditor(t, nil)
	login(c)
	// Empty list first.
	if apps := c.do("GET", "/apps", nil, 200)["apps"]; apps != nil {
		t.Fatalf("fresh list = %v", apps)
	}
	a := c.do("POST", "/apps", map[string]string{"name": "one"}, 201)["id"].(string)
	b := c.do("POST", "/apps", map[string]string{"name": "two"}, 201)["id"].(string)
	c.do("POST", "/apps/"+a+"/tasks", map[string]string{"name": "Spin"}, 201)
	apps := c.do("GET", "/apps", nil, 200)["apps"].([]any)
	if len(apps) != 2 {
		t.Fatalf("list = %v", apps)
	}
	first := apps[0].(map[string]any)
	if first["name"] != "one" || first["tasks"].(float64) != 1 {
		t.Fatalf("first row = %v", first)
	}
	c.do("DELETE", "/apps/"+a, nil, 200)
	c.do("DELETE", "/apps/"+a, nil, 404) // double delete
	apps = c.do("GET", "/apps", nil, 200)["apps"].([]any)
	if len(apps) != 1 || apps[0].(map[string]any)["id"] != b {
		t.Fatalf("list after delete = %v", apps)
	}
}

// TestSessionTableIsBoundedPerUser: a client that logs in over and over
// leaves at most maxSessionsPerUser sessions behind; the newest token
// works and the first, long evicted, is refused.
func TestSessionTableIsBoundedPerUser(t *testing.T) {
	users := repository.NewUserAccountsDB()
	if _, err := users.AddUser("user_k", "pw", 3, repository.DomainGlobal); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(users, tasklib.Default(), nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	first, last := &client{t: t, base: ts.URL}, &client{t: t, base: ts.URL}
	login(first)
	for range 999 {
		login(last)
	}
	srv.mu.Lock()
	n := len(srv.sessions)
	srv.mu.Unlock()
	if n > maxSessionsPerUser {
		t.Fatalf("1,000 logins left %d sessions, over the bound of %d", n, maxSessionsPerUser)
	}
	last.do("GET", "/libraries", nil, 200)
	first.do("GET", "/libraries", nil, 401)
}
