// Package jobsapi is the versioned job-control HTTP surface shared by
// every VDCE front end: vdce-server mounts it as the site-wide
// monitoring and control API, and the Application Editor mounts it
// owner-scoped so users manage their own running applications — the
// paper's "user interacts with the executing application" through the
// editor, generalized to a protocol both tools speak.
//
//	GET    /v1/jobs             list jobs (filter: owner, state;
//	                            paginate: cursor, limit; limit=0 is
//	                            count-only)
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/events one job's lifecycle as SSE (resume with
//	                            Last-Event-ID; ends at the terminal event)
//	GET    /v1/events           site-wide job event firehose (filter:
//	                            owner, state)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/owners           per-owner fair-share weights, quota
//	                            limits, rate limits, and live usage
//	PATCH  /v1/owners/{owner}   runtime owner administration: pin the
//	                            fair-share weight, override quota caps
//	                            (site-wide mounts only; owner-scoped
//	                            mounts answer 403 — the editor surface
//	                            stays read-only)
//	GET    /v1/hosts            per-host health: up/down, failure-
//	                            detector state, and its quarantine
//	                            phase (breaker closed/open/half-open
//	                            with the windowed failure rate)
//	GET    /v1/jobs/{id}/trace  one job's lifecycle trace: phase
//	                            boundary timestamps plus park,
//	                            reschedule, and failure point events
//
// All endpoints require authentication; the embedding server supplies
// the session model. When Config.RateLimit is set, every request spends
// one token from the caller's per-owner bucket and an empty bucket
// answers 429 with Retry-After — one owner's polling storm cannot crowd
// out another owner's requests or streams.
package jobsapi

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdce/internal/obs"
	"vdce/internal/services"
)

// DefaultLimit and MaxLimit bound GET /v1/jobs pages. A limit above
// MaxLimit is rejected with 400 (not silently clamped): the caller
// asked for a page the server will not serve, and pretending otherwise
// would corrupt cursor arithmetic clients build on top.
const (
	DefaultLimit = 100
	MaxLimit     = 1000
)

// Cursor is a position in the canonical (submit-time, then ID) listing
// order — the keyset cursor of GET /v1/jobs. A page's next_cursor
// encodes the last row returned; passing it back resumes strictly
// after that row in O(page) time at any board depth, and stays correct
// as earlier rows are evicted or later rows arrive.
type Cursor struct {
	// Submitted is the row's submission time in Unix nanoseconds.
	Submitted int64
	// ID is the row's job ID, breaking submission-time ties.
	ID string
}

// IsZero reports whether the cursor is the start-of-listing position.
func (c Cursor) IsZero() bool { return c.Submitted == 0 && c.ID == "" }

// CursorOf returns the cursor positioned at a job status row.
func CursorOf(s services.JobStatus) Cursor {
	return Cursor{Submitted: s.SubmittedAt.UnixNano(), ID: s.ID}
}

// Less orders cursors by the canonical listing order.
func (c Cursor) Less(o Cursor) bool {
	if c.Submitted != o.Submitted {
		return c.Submitted < o.Submitted
	}
	return c.ID < o.ID
}

// Encode renders the cursor as the opaque token carried in next_cursor.
func (c Cursor) Encode() string { return string(c.appendToken(nil)) }

// appendToken appends the encoded cursor: base64url of "<nanos>:<id>".
func (c Cursor) appendToken(dst []byte) []byte {
	var scratch [64]byte
	raw := strconv.AppendInt(scratch[:0], c.Submitted, 10)
	raw = append(raw, ':')
	raw = append(raw, c.ID...)
	return base64.RawURLEncoding.AppendEncode(dst, raw)
}

// DecodeCursor parses a token produced by Encode. The empty token is
// the start of the listing.
func DecodeCursor(token string) (Cursor, error) {
	if token == "" {
		return Cursor{}, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil {
		return Cursor{}, fmt.Errorf("jobsapi: malformed cursor %q", token)
	}
	sep := strings.IndexByte(string(raw), ':')
	if sep < 0 {
		return Cursor{}, fmt.Errorf("jobsapi: malformed cursor %q", token)
	}
	ns, err := strconv.ParseInt(string(raw[:sep]), 10, 64)
	if err != nil {
		return Cursor{}, fmt.Errorf("jobsapi: malformed cursor %q", token)
	}
	return Cursor{Submitted: ns, ID: string(raw[sep+1:])}, nil
}

// Source is the job store the API serves — implemented by
// vdce.Environment.
type Source interface {
	// ListJobsAfter returns up to limit statuses filtered by owner and
	// state (empty strings match everything) strictly after the cursor
	// position in the canonical (submit-time, then ID) order, and whether
	// the page filled (more may remain). Implementations must be
	// O(limit) in the board size, not O(board) — this is the pagination
	// path that must stay flat on deep boards.
	ListJobsAfter(owner, state string, after Cursor, limit int) (jobs []services.JobStatus, more bool)
	// CountJobs returns the filtered total behind the count-only listing
	// (explicit limit=0) without materializing a row.
	CountJobs(owner, state string) int
	// Job returns one job's current status.
	Job(id string) (services.JobStatus, bool)
	// CancelJob cancels a queued or running job; canceling a terminal
	// job is a no-op. It errors only for unknown IDs.
	CancelJob(id string) error
	// Owners returns every known owner's fair-share weight, quota
	// limits, and live usage counters, sorted by owner name. The usage
	// counters must come from the same ground truth the listing serves.
	// Callers must not retain or mutate the returned slice's backing
	// array beyond the request.
	Owners() []services.OwnerStatus
	// UpdateOwner applies a partial owner-admin change — pin the
	// fair-share weight, override quota caps — effective on the live
	// admission queue immediately and persisted when the environment is
	// durable. An empty update is an error.
	UpdateOwner(owner string, upd services.OwnerUpdate) (services.OwnerStatus, error)
	// Hosts returns every testbed host's health snapshot, including
	// its quarantine phase, in testbed order: site by site, each site's
	// hosts as built (GET /v1/hosts).
	Hosts() []services.HostStatus
	// JobTrace returns one retained job's ordered lifecycle trace: phase
	// boundaries plus park/reschedule/failure point events
	// (GET /v1/jobs/{id}/trace).
	JobTrace(id string) (services.JobTrace, bool)
}

// Config wires one mount of the API.
type Config struct {
	// Source supplies and controls the jobs.
	Source Source
	// Authenticate resolves a request to its user; ok=false yields 401.
	// The user name is what OwnerScoped authorization compares against.
	Authenticate func(*http.Request) (user string, ok bool)
	// OwnerScoped restricts the whole surface to the caller's own jobs
	// (the editor mount): listings and the firehose are forced to
	// owner=<caller>, and GET/DELETE on someone else's job answer 403.
	// Unscoped mounts (the vdce-server administrative surface) expose
	// and control every job.
	OwnerScoped bool
	// Events feeds the streaming endpoints (/v1/jobs/{id}/events and
	// /v1/events); nil answers them 503.
	Events *Broker
	// RateLimit enforces a per-owner request token bucket across the
	// whole mount; the zero value disables it.
	RateLimit RateLimitConfig
	// Metrics, when non-nil, receives the mount's per-owner throttle
	// counters (vdce_api_rate_throttled_total{owner}) — the same cells
	// GET /v1/owners reports as rate_throttled, so the two surfaces
	// cannot disagree. Mounts sharing a registry aggregate.
	Metrics *obs.Registry
}

// Handler returns the /v1 job-control mux.
func Handler(cfg Config) http.Handler {
	return cfg.mux(newRateLimiter(cfg.RateLimit, cfg.Metrics))
}

// mux is Handler over a given limiter (nil: no rate limit).
func (c Config) mux(limiter *rateLimiter) *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h func(http.ResponseWriter, *http.Request, string)) {
		mux.HandleFunc(pattern, c.auth(limiter, h))
	}
	handle("GET /v1/jobs", c.handleList)
	handle("GET /v1/jobs/{id}", c.handleGet)
	handle("GET /v1/jobs/{id}/events", c.handleJobEvents)
	handle("GET /v1/events", c.handleFirehose)
	handle("DELETE /v1/jobs/{id}", c.handleCancel)
	handle("GET /v1/owners", func(w http.ResponseWriter, r *http.Request, user string) {
		c.handleOwners(w, r, user, limiter)
	})
	handle("PATCH /v1/owners/{owner}", c.handleOwnerPatch)
	handle("GET /v1/hosts", func(w http.ResponseWriter, r *http.Request, _ string) {
		writeJSON(w, http.StatusOK, map[string]any{"hosts": c.Source.Hosts()})
	})
	handle("GET /v1/jobs/{id}/trace", c.handleTrace)
	return mux
}

// handleTrace serves GET /v1/jobs/{id}/trace. Authorization follows
// handleGet exactly: owner-scoped mounts answer 403 for someone else's
// job, so the trace endpoint leaks nothing the status endpoint hides.
func (c Config) handleTrace(w http.ResponseWriter, r *http.Request, user string) {
	id := r.PathValue("id")
	s, ok := c.Source.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("jobsapi: no job %q", id))
		return
	}
	if c.OwnerScoped && s.Owner != user {
		writeErr(w, http.StatusForbidden, errors.New("jobsapi: not your job"))
		return
	}
	tr, ok := c.Source.JobTrace(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("jobsapi: no trace for job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// writeJSON answers with anything that is not a job status; statuses
// leave through writeBody in their hand-written wire form.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// bodyPool recycles the buffers status answers are assembled in.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody is the largest buffer bodyPool keeps; a full page of
// MaxLimit rows fits, anything larger is left to the collector.
const maxPooledBody = 1 << 20

// writeBody sends a JSON body built by appending to a pooled buffer,
// ending it with the newline json.Encoder has always written.
func writeBody(w http.ResponseWriter, code int, build func([]byte) []byte) {
	bp := bodyPool.Get().(*[]byte)
	body := append(build((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write is the client hanging up
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
}

// WriteJob answers with {"job": <status>} — the body of GET and DELETE
// /v1/jobs/{id} and of the editor's POST /v1/apps/{id}/submit.
func WriteJob(w http.ResponseWriter, code int, s services.JobStatus) {
	writeBody(w, code, func(dst []byte) []byte {
		dst = append(dst, `{"job":`...)
		return append(s.AppendJSON(dst), '}')
	})
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// auth wraps a handler with session authentication and, when a limiter
// is configured, the per-owner request budget. The order matters: the
// bucket is keyed by the authenticated owner, so unauthenticated
// requests are rejected before they can spend anyone's tokens.
func (c Config) auth(limiter *rateLimiter, h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user, ok := c.Authenticate(r)
		if !ok {
			writeErr(w, http.StatusUnauthorized, errors.New("jobsapi: not authenticated"))
			return
		}
		if limiter != nil {
			if rerr := limiter.allow(user, time.Now()); rerr != nil {
				writeRateErr(w, rerr)
				return
			}
		}
		h(w, r, user)
	}
}

// listResponse is one GET /v1/jobs page. Cursor pages carry
// next_cursor; the limit=0 count-only form carries total alone.
type listResponse struct {
	Jobs  []services.JobStatus
	Limit int
	// NextCursor resumes the listing strictly after the last returned
	// row; zero when the listing is exhausted.
	NextCursor Cursor
	// Total is the filtered job count — limit=0 count-only responses.
	Total *int
}

// appendJSON appends the page: jobs, limit, then next_cursor and total
// when set.
func (p listResponse) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"jobs":[`...)
	for i := range p.Jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = p.Jobs[i].AppendJSON(dst)
	}
	dst = append(dst, ']')
	dst = append(dst, `,"limit":`...)
	dst = strconv.AppendInt(dst, int64(p.Limit), 10)
	if !p.NextCursor.IsZero() {
		dst = append(dst, `,"next_cursor":"`...)
		dst = append(p.NextCursor.appendToken(dst), '"')
	}
	if p.Total != nil {
		dst = append(dst, `,"total":`...)
		dst = strconv.AppendInt(dst, int64(*p.Total), 10)
	}
	return append(dst, '}')
}

// queryInt parses a non-negative integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("jobsapi: %s must be a non-negative integer, got %q", name, raw)
	}
	return v, nil
}

// handleList serves GET /v1/jobs two ways:
//
//   - limit=0: count-only — zero rows plus the filtered total. The
//     explicit contract for "how many", with none of the rows.
//   - otherwise: cursor (keyset) pagination — pass next_cursor back as
//     cursor to resume; O(page) at any depth.
func (c Config) handleList(w http.ResponseWriter, r *http.Request, user string) {
	q := r.URL.Query()
	limit, err := queryInt(r, "limit", DefaultLimit)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if limit > MaxLimit {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("jobsapi: limit %d exceeds the maximum page size %d", limit, MaxLimit))
		return
	}
	owner := q.Get("owner")
	if c.OwnerScoped {
		// Users see only their own jobs, whatever filter they ask for.
		owner = user
	}
	state := q.Get("state")

	// Count-only: an explicit limit=0 (an absent one took the default
	// above) returns zero rows and the filtered total.
	if limit == 0 {
		total := c.Source.CountJobs(owner, state)
		writeBody(w, http.StatusOK, listResponse{Total: &total}.appendJSON)
		return
	}

	after, err := DecodeCursor(q.Get("cursor"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	jobs, more := c.Source.ListJobsAfter(owner, state, after, limit)
	resp := listResponse{Jobs: jobs, Limit: limit}
	if more && len(jobs) > 0 {
		resp.NextCursor = CursorOf(jobs[len(jobs)-1])
	}
	writeBody(w, http.StatusOK, resp.appendJSON)
}

// handleOwners serves GET /v1/owners: each owner's fair-share weight,
// quota limits, rate-limit budget, and live usage. On owner-scoped
// mounts a user sees only their own row (possibly empty, if they never
// submitted).
func (c Config) handleOwners(w http.ResponseWriter, r *http.Request, user string, limiter *rateLimiter) {
	owners := c.Source.Owners()
	if c.OwnerScoped {
		// Filter into a fresh slice: reslicing the source's return value
		// (owners[:0]) would compact rows in place over its backing array,
		// corrupting any listing the source serves from shared state.
		scoped := make([]services.OwnerStatus, 0, 1)
		for _, o := range owners {
			if o.Owner == user {
				scoped = append(scoped, o)
			}
		}
		owners = scoped
	}
	if owners == nil {
		owners = []services.OwnerStatus{}
	}
	if limiter != nil {
		// Annotate a copy, not the Source's backing array (same contract
		// the scoped filter above honors).
		annotated := make([]services.OwnerStatus, len(owners))
		copy(annotated, owners)
		for i := range annotated {
			annotated[i].RateRPS = limiter.cfg.RequestsPerSecond
			annotated[i].RateBurst = int(limiter.cfg.burst())
			annotated[i].RateThrottled = limiter.throttledCount(annotated[i].Owner)
		}
		owners = annotated
	}
	writeJSON(w, http.StatusOK, map[string]any{"owners": owners})
}

// handleOwnerPatch serves PATCH /v1/owners/{owner}: a partial admin
// update (weight pin, quota-cap override) applied to the live admission
// queue and persisted when the environment is durable. It is an
// administrative verb: owner-scoped mounts (the editor) answer 403 for
// everyone — users do not set their own weights — and only the
// site-wide mount carries it.
func (c Config) handleOwnerPatch(w http.ResponseWriter, r *http.Request, user string) {
	if c.OwnerScoped {
		writeErr(w, http.StatusForbidden,
			errors.New("jobsapi: owner administration requires the site-wide mount"))
		return
	}
	owner := r.PathValue("owner")
	var upd services.OwnerUpdate
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&upd); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("jobsapi: bad owner update: %w", err))
		return
	}
	if upd.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("jobsapi: empty owner update"))
		return
	}
	s, err := c.Source.UpdateOwner(owner, upd)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"owner": s})
}

// fetch resolves one job for the authenticated user, writing the 404 /
// 403 responses itself. On owner-scoped mounts another user's job is
// 403 without naming its owner.
func (c Config) fetch(w http.ResponseWriter, id, user string) (services.JobStatus, bool) {
	s, ok := c.Source.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("jobsapi: no job %q", id))
		return services.JobStatus{}, false
	}
	if c.OwnerScoped && s.Owner != user {
		writeErr(w, http.StatusForbidden,
			fmt.Errorf("jobsapi: job %q belongs to another user", id))
		return services.JobStatus{}, false
	}
	return s, true
}

func (c Config) handleGet(w http.ResponseWriter, r *http.Request, user string) {
	s, ok := c.fetch(w, r.PathValue("id"), user)
	if !ok {
		return
	}
	WriteJob(w, http.StatusOK, s)
}

func (c Config) handleCancel(w http.ResponseWriter, r *http.Request, user string) {
	id := r.PathValue("id")
	s, ok := c.fetch(w, id, user)
	if !ok {
		return
	}
	if err := c.Source.CancelJob(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	// Report the post-cancel status; a queued job is already terminal, a
	// running one may still be draining. If retention pruning evicted the
	// job between cancel and re-fetch, answer with the pre-cancel
	// snapshot rather than a zero-value job.
	if cur, found := c.Source.Job(id); found {
		s = cur
	}
	WriteJob(w, http.StatusOK, s)
}
