// Package editor implements the server side of the VDCE Application
// Editor: the paper's web-based interface through which a user
// authenticates against the site's user-accounts database, browses the
// menu-driven task libraries, builds an application flow graph, sets
// task properties, and submits the application to the Application
// Scheduler. The browser GUI is replaced by a JSON/HTTP API with
// identical capabilities (the scheduler consumes the same AFGs).
package editor

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/repository"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

// JobOptions carries the per-submission controls of the versioned
// submit endpoint (POST /v1/apps/{id}/submit). Nil pointers mean "use
// the server default".
type JobOptions struct {
	// Priority overrides the owner's account priority for this job.
	Priority *int
	// Deadline bounds the job's lifetime from admission; 0 means none.
	Deadline time.Duration
	// MaxHosts overrides the scheduler's neighbor-site count k (still
	// clamped by the owner's access domain).
	MaxHosts *int
	// ShareWeight overrides the owner's fair-share weight (>= 1) used
	// by weighted fair queuing across owners.
	ShareWeight *int
}

// JobSubmitter receives a finished application graph (Fig. 2 step 1:
// "Receive application flow graph from Application Editor"), enqueues
// it for asynchronous execution and returns the job's admission status
// immediately. ctx is the submitting request's context: it bounds how
// long admission may block, so abandoned requests do not pin handler
// goroutines.
type JobSubmitter func(ctx context.Context, owner string, g *afg.Graph, o JobOptions) (services.JobStatus, error)

// ErrBadSubmission marks JobSubmitter failures caused by the request
// itself (an already-expired deadline, a client that disconnected), so
// the v1 submit endpoint answers 400 instead of 500. Wrap with
// fmt.Errorf("%w: ...", ErrBadSubmission).
var ErrBadSubmission = errors.New("editor: bad submission")

// ErrQuotaExceeded marks JobSubmitter failures caused by the owner
// being over a per-owner admission quota, so the v1 submit endpoint
// answers 429 (back off and retry) instead of 400 or 500. Wrap with
// fmt.Errorf("%w: ...", ErrQuotaExceeded).
var ErrQuotaExceeded = errors.New("editor: owner quota exceeded")

// ErrOverloaded marks JobSubmitter failures caused by the service
// shedding load (full queue, infeasible deadline, quarantined hosts):
// the whole service is backing off, not one owner, so the v1 submit
// endpoint answers 503 with a Retry-After header — next to the 429 +
// Retry-After per-owner quota vocabulary. Matched via errors.Is; wrap
// in an *OverloadedError to carry the backoff hint.
var ErrOverloaded = errors.New("editor: service overloaded")

// OverloadedError carries a shed rejection's backoff hint and reason
// through the JobSubmitter boundary to the HTTP layer.
type OverloadedError struct {
	// RetryAfter is the suggested client backoff, emitted as the 503's
	// Retry-After header (rounded up to whole seconds, minimum 1).
	RetryAfter time.Duration
	// Reason is the shedder's machine-readable reason (e.g. queue-full),
	// echoed in the error body.
	Reason string
	// Err is the underlying rejection.
	Err error
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v: %v", ErrOverloaded, e.Err)
}

func (e *OverloadedError) Unwrap() error { return e.Err }

// Is lets errors.Is(err, ErrOverloaded) match the typed rejection.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// retryAfterSeconds renders a backoff hint as a Retry-After header
// value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// Server is the editor backend for one VDCE site.
type Server struct {
	Users    *repository.UserAccountsDB
	Registry *tasklib.Registry
	// SubmitJob backs POST /v1/apps/{id}/submit; nil answers 503.
	SubmitJob JobSubmitter
	// Jobs, when non-nil, serves the rest of /v1 — the shared job-control
	// API (internal/jobsapi), owner-scoped by the embedding environment
	// so editor users manage their own jobs. Set it before Handler.
	Jobs http.Handler

	mu       sync.Mutex
	sessions map[string]string         // token -> user
	logins   map[string][]string       // user -> live tokens, oldest first
	apps     map[string]*appInProgress // app id -> builder state
	nextApp  int
}

// maxSessionsPerUser bounds one user's live session tokens: a login past
// it ends the user's oldest session, so a client that logs in for every
// request cannot grow the session table without bound.
const maxSessionsPerUser = 64

// appInProgress is one application under construction. graph is what
// edit requests mutate; frozen is the validated deep copy submissions
// hand to the scheduler, made by the first submit after an edit and
// shared, read-only, by every submit until the next edit drops it. edits
// counts mutations so a copy made outside the lock is only kept if no
// edit raced it. All fields but owner are guarded by Server.mu.
type appInProgress struct {
	owner  string
	graph  *afg.Graph
	frozen *afg.Graph
	edits  uint64
}

// edited records a mutation of the application's graph; caller holds
// Server.mu.
func (a *appInProgress) edited() {
	a.frozen = nil
	a.edits++
}

// NewServer wires an editor over the given accounts database and task
// catalog, handing submissions to submit.
func NewServer(users *repository.UserAccountsDB, reg *tasklib.Registry, submit JobSubmitter) *Server {
	return &Server{
		Users:     users,
		Registry:  reg,
		SubmitJob: submit,
		sessions:  make(map[string]string),
		logins:    make(map[string][]string),
		apps:      make(map[string]*appInProgress),
	}
}

// MaxBodyBytes bounds every request body the editor reads; a larger one
// is answered 413. An imported flow graph is the largest legitimate body
// (a 10,000-task graph is under 4 MiB).
const MaxBodyBytes = 8 << 20

// Handler returns the editor's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /login", s.handleLogin)
	mux.HandleFunc("GET /libraries", s.auth(s.handleLibraries))
	mux.HandleFunc("GET /libraries/{lib}", s.auth(s.handleLibrary))
	mux.HandleFunc("POST /apps", s.auth(s.handleCreateApp))
	mux.HandleFunc("GET /apps", s.auth(s.handleListApps))
	mux.HandleFunc("POST /apps/import", s.auth(s.handleImport))
	mux.HandleFunc("DELETE /apps/{id}", s.auth(s.handleDeleteApp))
	mux.HandleFunc("GET /apps/{id}", s.auth(s.handleGetApp))
	mux.HandleFunc("POST /apps/{id}/tasks", s.auth(s.handleAddTask))
	mux.HandleFunc("POST /apps/{id}/edges", s.auth(s.handleAddEdge))
	mux.HandleFunc("POST /apps/{id}/props", s.auth(s.handleSetProps))
	// Versioned job-control surface: asynchronous submission with
	// priority/deadline/max-hosts, plus the shared /v1/jobs API.
	mux.HandleFunc("POST /v1/apps/{id}/submit", s.auth(s.handleSubmitV1))
	if s.Jobs != nil {
		// The job-control API is a mux that knows its own routes: the
		// rest of /v1 is its.
		mux.Handle("/v1/", s.Jobs)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		mux.ServeHTTP(w, r)
	})
}

// --- helpers ---

// writeJSON answers with anything that is not a job status; the one
// status the editor emits (the submit answer) goes through
// jobsapi.WriteJob.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeBodyErr answers a request whose body could not be read or
// parsed: 413 when it ran over MaxBodyBytes, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
}

func newToken() string {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("editor: crypto/rand: %v", err))
	}
	return hex.EncodeToString(b)
}

// sessionUser resolves the request's bearer token to its logged-in
// user.
func (s *Server) sessionUser(r *http.Request) (string, bool) {
	tok := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if tok == "" {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	user, ok := s.sessions[tok]
	return user, ok
}

// SessionUser resolves the request's bearer token to its logged-in user
// — the authentication hook sibling mounts (the job-control API) plug
// into so every surface shares one login model.
func (s *Server) SessionUser(r *http.Request) (string, bool) {
	return s.sessionUser(r)
}

// auth wraps a handler with bearer-token session checking — the paper's
// "after user authentication, the Application Editor is loaded".
func (s *Server) auth(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user, ok := s.sessionUser(r)
		if !ok {
			writeErr(w, http.StatusUnauthorized, errors.New("editor: not authenticated"))
			return
		}
		h(w, r, user)
	}
}

func (s *Server) app(id, user string) (*appInProgress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	app, ok := s.apps[id]
	if !ok {
		return nil, fmt.Errorf("editor: no application %q", id)
	}
	if app.owner != user {
		return nil, fmt.Errorf("editor: application %q belongs to %s", id, app.owner)
	}
	return app, nil
}

// --- handlers ---

type loginRequest struct {
	User     string `json:"user"`
	Password string `json:"password"`
}

// Login authenticates user against the editor served at base (POST
// /login) and returns the session token: the client side of handleLogin,
// shared by the command-line tools.
func Login(base, user, pass string) (string, error) {
	body, _ := json.Marshal(loginRequest{User: user, Password: pass})
	resp, err := http.Post(base+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct{ Token, Error string } // "token", or "error"
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if out.Error != "" {
		return "", fmt.Errorf("login: %s", out.Error)
	}
	return out.Token, nil
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req loginRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	acct, err := s.Users.Authenticate(req.User, req.Password)
	if err != nil {
		writeErr(w, http.StatusUnauthorized, err)
		return
	}
	tok := newToken()
	s.mu.Lock()
	s.sessions[tok] = acct.Name
	live := append(s.logins[acct.Name], tok)
	if len(live) > maxSessionsPerUser {
		delete(s.sessions, live[0])
		live = live[1:]
	}
	s.logins[acct.Name] = live
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"token": tok, "user_id": acct.UserID, "priority": acct.Priority, "domain": acct.Domain,
	})
}

func (s *Server) handleLibraries(w http.ResponseWriter, _ *http.Request, _ string) {
	writeJSON(w, http.StatusOK, map[string]any{"libraries": s.Registry.Libraries()})
}

type taskInfo struct {
	Name     string `json:"name"`
	InPorts  int    `json:"in_ports"`
	OutPorts int    `json:"out_ports"`
	Parallel bool   `json:"parallelizable"`
}

func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request, _ string) {
	lib := r.PathValue("lib")
	names := s.Registry.Names(lib)
	if len(names) == 0 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("editor: no library %q", lib))
		return
	}
	out := make([]taskInfo, 0, len(names))
	for _, n := range names {
		spec, err := s.Registry.Get(n)
		if err != nil {
			continue
		}
		out = append(out, taskInfo{
			Name: n, InPorts: spec.InPorts, OutPorts: spec.OutPorts,
			Parallel: spec.Params.Parallelizable,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"library": lib, "tasks": out})
}

func (s *Server) handleCreateApp(w http.ResponseWriter, r *http.Request, user string) {
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("editor: application needs a name"))
		return
	}
	s.mu.Lock()
	s.nextApp++
	id := fmt.Sprintf("app-%d", s.nextApp)
	g := afg.NewGraph(req.Name)
	g.Owner = user
	s.apps[id] = &appInProgress{owner: user, graph: g}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// handleListApps lists the caller's applications with their task counts.
func (s *Server) handleListApps(w http.ResponseWriter, _ *http.Request, user string) {
	type row struct {
		ID    string `json:"id"`
		Name  string `json:"name"`
		Tasks int    `json:"tasks"`
		Edges int    `json:"edges"`
	}
	s.mu.Lock()
	var out []row
	for id, app := range s.apps {
		if app.owner != user {
			continue
		}
		out = append(out, row{ID: id, Name: app.graph.Name, Tasks: len(app.graph.Tasks), Edges: len(app.graph.Edges)})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"apps": out})
}

// handleDeleteApp removes one of the caller's applications.
func (s *Server) handleDeleteApp(w http.ResponseWriter, r *http.Request, user string) {
	id := r.PathValue("id")
	if _, err := s.app(id, user); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	delete(s.apps, id)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// handleImport accepts a complete AFG as JSON (the format EncodeJSON
// emits), validating it before registration — the CLI submission path.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request, user string) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	g, err := afg.DecodeJSON(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	g.Owner = user
	s.mu.Lock()
	s.nextApp++
	id := fmt.Sprintf("app-%d", s.nextApp)
	s.apps[id] = &appInProgress{owner: user, graph: g}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleGetApp(w http.ResponseWriter, r *http.Request, user string) {
	app, err := s.app(r.PathValue("id"), user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, app.graph)
}

func (s *Server) handleAddTask(w http.ResponseWriter, r *http.Request, user string) {
	app, err := s.app(r.PathValue("id"), user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	spec, err := s.Registry.Get(req.Name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	id := app.graph.AddTask(spec.Name, spec.Library, spec.InPorts, spec.OutPorts)
	app.edited()
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]int{"task": int(id)})
}

func (s *Server) handleAddEdge(w http.ResponseWriter, r *http.Request, user string) {
	app, err := s.app(r.PathValue("id"), user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req struct {
		From     int   `json:"from"`
		FromPort int   `json:"from_port"`
		To       int   `json:"to"`
		ToPort   int   `json:"to_port"`
		Size     int64 `json:"size_bytes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	s.mu.Lock()
	err = app.graph.Connect(afg.TaskID(req.From), req.FromPort, afg.TaskID(req.To), req.ToPort, req.Size)
	app.edited()
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "connected"})
}

func (s *Server) handleSetProps(w http.ResponseWriter, r *http.Request, user string) {
	app, err := s.app(r.PathValue("id"), user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req struct {
		Task  int            `json:"task"`
		Props afg.Properties `json:"props"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeBodyErr(w, err)
		return
	}
	s.mu.Lock()
	err = app.graph.SetProps(afg.TaskID(req.Task), req.Props)
	app.edited()
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// snapshotGraph returns the application's frozen graph: a validated
// deep copy (one JSON round trip, the encode under the server lock) that
// shares no structure with the graph edit requests keep mutating. The
// copy is made once per edit; submissions of an unedited application all
// receive the same pointer, which the pipeline only reads.
func (s *Server) snapshotGraph(app *appInProgress) (*afg.Graph, error) {
	s.mu.Lock()
	if g := app.frozen; g != nil {
		s.mu.Unlock()
		return g, nil
	}
	edits := app.edits
	data, err := app.graph.EncodeJSON()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	g, err := afg.DecodeJSON(data) // validates
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if app.edits != edits {
		// An edit landed meanwhile: g is this submission's private copy.
		return g, nil
	}
	if app.frozen == nil {
		app.frozen = g
	}
	return app.frozen, nil
}

// submitV1Request is the body of POST /v1/apps/{id}/submit. All fields
// are optional.
type submitV1Request struct {
	// Priority overrides the account priority for this job.
	Priority *int `json:"priority"`
	// DeadlineMS bounds the job's lifetime, in milliseconds from now.
	DeadlineMS int64 `json:"deadline_ms"`
	// MaxHosts overrides the scheduler's neighbor-site count k.
	MaxHosts *int `json:"max_hosts"`
	// ShareWeight overrides the owner's fair-share weight (>= 1).
	ShareWeight *int `json:"share_weight"`
}

// handleSubmitV1 enqueues the application asynchronously with job
// options and returns the job's admission status (ID, state, priority,
// queue position) immediately; clients follow progress — and cancel —
// through /v1/jobs/{id}.
func (s *Server) handleSubmitV1(w http.ResponseWriter, r *http.Request, user string) {
	app, err := s.app(r.PathValue("id"), user)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req submitV1Request
	if r.Body != nil && r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeBodyErr(w, err)
			return
		}
	}
	if req.DeadlineMS < 0 {
		writeErr(w, http.StatusBadRequest, errors.New("editor: deadline_ms must be >= 0"))
		return
	}
	g, err := s.snapshotGraph(app)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if s.SubmitJob == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("editor: no job pipeline attached"))
		return
	}
	status, err := s.SubmitJob(r.Context(), user, g, JobOptions{
		Priority:    req.Priority,
		Deadline:    time.Duration(req.DeadlineMS) * time.Millisecond,
		MaxHosts:    req.MaxHosts,
		ShareWeight: req.ShareWeight,
	})
	if err != nil {
		code := http.StatusInternalServerError
		var oe *OverloadedError
		switch {
		case errors.As(err, &oe):
			// Adaptive load shedding: the service refused the work to stay
			// responsive. 503 + Retry-After tells the client when to come
			// back; the reason says why it was shed.
			w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"error":       err.Error(),
				"shed_reason": oe.Reason,
			})
			return
		case errors.Is(err, ErrQuotaExceeded):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrBadSubmission):
			code = http.StatusBadRequest
		}
		writeErr(w, code, err)
		return
	}
	jobsapi.WriteJob(w, http.StatusAccepted, status)
}
