// Command vdce-submit authenticates against a VDCE server's Application
// Editor and submits an application: either a built-in demo graph (the
// Fig. 1 Linear Equation Solver or the C3I pipeline) or an AFG JSON
// file. With -count > 1 it submits that many copies concurrently,
// exercising the server's multi-application submission pipeline.
//
// Submissions go through the versioned job-control API
// (POST /v1/apps/{id}/submit with -priority, -deadline, -maxhosts, and
// -weight for the owner's fair-share weight), then each job is watched
// by subscribing to its Server-Sent Events stream
// (GET /v1/jobs/{id}/events): queue position and state transitions are
// reported as they arrive — zero status polls — and the command exits
// non-zero if any submitted job is rejected, fails, or is canceled. A
// dropped stream resumes from the last event cursor (Last-Event-ID).
// A per-owner quota rejection (HTTP 429) is rendered distinctly — the
// server is healthy, the owner is over its cap. An overload shed
// (HTTP 503 with Retry-After, from the server's admission control) is
// also distinct: the command waits out the server's Retry-After hint
// once and retries; if the retry is shed too it exits with code 75
// (EX_TEMPFAIL) so scripts can tell "server saturated, try later" from
// a failed job. A schedule-only server (-execute=false) answers the
// versioned submit with 503 and no Retry-After; the command then asks
// POST /apps/{id}/submit for the allocation table instead.
//
//	vdce-submit -server http://127.0.0.1:8470 -app les -n 256
//	vdce-submit -server http://127.0.0.1:8470 -app c3i -count 8 -priority 9
//	vdce-submit -server http://127.0.0.1:8470 -file app.json -deadline 30s
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/services"
	"vdce/internal/tasklib"
)

// errShed marks a submission rejected by the server's overload control
// (503 + Retry-After) even after the one client-side retry: the server
// is healthy but saturated, so the right move is to come back later,
// not to treat the run as failed.
var errShed = errors.New("server shedding load")

// exitShed is the process exit code for errShed — EX_TEMPFAIL from
// sysexits, the conventional "transient failure, retry later".
const exitShed = 75

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errShed) {
			log.Print(err)
			os.Exit(exitShed)
		}
		log.Fatal(err)
	}
}

// run parses args, builds the graph, and submits it -count times
// concurrently, writing results to out. It returns an error — and the
// process exits non-zero — if any submission is rejected or any job
// ends failed or canceled.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vdce-submit", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8470", "editor base URL")
	user := fs.String("user", "user_k", "VDCE user")
	pass := fs.String("pass", "vdce", "password")
	app := fs.String("app", "les", "built-in application: les | c3i")
	n := fs.Int("n", 256, "problem size (LES matrix order / C3I targets)")
	file := fs.String("file", "", "submit an AFG JSON file instead of a built-in app")
	count := fs.Int("count", 1, "how many copies to submit concurrently")
	priority := fs.Int("priority", -1, "job priority (-1 = the account's default)")
	deadline := fs.Duration("deadline", 0, "job deadline from submission (0 = none)")
	maxHosts := fs.Int("maxhosts", -1, "neighbor-site count k (-1 = server default)")
	weight := fs.Int("weight", 0, "owner fair-share weight (0 = the account's default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *count < 1 {
		return fmt.Errorf("count must be >= 1, got %d", *count)
	}

	graph, err := buildGraph(*file, *app, *n)
	if err != nil {
		return err
	}

	token, err := login(*server, *user, *pass)
	if err != nil {
		return err
	}

	body := map[string]any{}
	if *priority >= 0 {
		body["priority"] = *priority
	}
	if *deadline > 0 {
		body["deadline_ms"] = deadline.Milliseconds()
	}
	if *maxHosts >= 0 {
		body["max_hosts"] = *maxHosts
	}
	if *weight > 0 {
		body["share_weight"] = *weight
	}

	var mu sync.Mutex // serializes report lines from concurrent watchers
	say := func(format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(out, format, a...)
	}

	type outcome struct {
		idx int
		err error
	}
	results := make([]outcome, *count)
	var wg sync.WaitGroup
	for i := 0; i < *count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = outcome{idx: i, err: submitOne(*server, token, graph, body, say)}
		}(i)
	}
	wg.Wait()

	var firstErr error
	for _, oc := range results {
		if oc.err != nil {
			say("submission %d failed: %v\n", oc.idx, oc.err)
			if firstErr == nil {
				firstErr = oc.err
			}
		}
	}
	return firstErr
}

// submitOne imports the graph and submits it once through the versioned
// async endpoint, watching the job to a terminal state. A shed
// submission (503 carrying Retry-After or a shed_reason — the server's
// overload control, as opposed to the bare 503 of a schedule-only
// server) is retried exactly once after waiting out the server's hint;
// a second shed returns errShed.
func submitOne(server, token string, graph *afg.Graph, body map[string]any, say func(string, ...any)) error {
	appID, err := importGraph(server, token, graph)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		v1, code, hdr, err := request(server, token, "POST", "/v1/apps/"+appID+"/submit", payload)
		if code == http.StatusServiceUnavailable && (hdr.Get("Retry-After") != "" || v1["shed_reason"] != nil) {
			reason, _ := v1["shed_reason"].(string)
			msg, _ := v1["error"].(string)
			if attempt == 0 {
				wait := retryAfterDelay(hdr.Get("Retry-After"))
				say("submission of %q shed by overload control (%s); retrying once in %v\n", graph.Name, reason, wait)
				time.Sleep(wait)
				continue
			}
			say("submission of %q shed again (%s): server saturated, try later\n", graph.Name, reason)
			return fmt.Errorf("%w: %s (reason: %s)", errShed, msg, reason)
		}
		switch code {
		case http.StatusAccepted:
			job, _ := v1["job"].(map[string]any)
			id, _ := job["id"].(string)
			if id == "" {
				return fmt.Errorf("v1 submit returned no job id: %v", v1)
			}
			prio, _ := job["priority"].(float64)
			say("submitted %q as %s: job %s (priority %d)\n", graph.Name, appID, id, int(prio))
			return watchJobEvents(server, token, id, say)
		case http.StatusTooManyRequests:
			// Per-owner quota rejection: render it distinctly from job
			// failures — the server is healthy, the owner is over its cap
			// and should back off or raise its quota.
			msg, _ := v1["error"].(string)
			if msg == "" {
				msg = "owner quota exceeded"
			}
			say("submission of %q rejected by owner quota: %s\n", graph.Name, msg)
			return fmt.Errorf("owner quota exceeded: %s", msg)
		case http.StatusServiceUnavailable:
			// Schedule-only server: nothing runs, the synchronous submit
			// answers with the allocation table.
			sched, scode, _, serr := request(server, token, "POST", "/apps/"+appID+"/submit", nil)
			if serr != nil {
				return serr
			}
			if scode >= 300 {
				return fmt.Errorf("POST /apps/%s/submit: %d %v", appID, scode, sched)
			}
			pretty, _ := json.MarshalIndent(sched["result"], "", "  ")
			say("submitted %q as %s\n%s\n", graph.Name, appID, pretty)
			return nil
		default:
			if err != nil {
				return err
			}
			return fmt.Errorf("POST /v1/apps/%s/submit: %d %v", appID, code, v1)
		}
	}
}

// retryAfterDelay turns a Retry-After header (delay-seconds form) into
// a wait, defaulting to 1s when absent or unparseable and capping at 5s
// so a pathological hint cannot hang the client.
func retryAfterDelay(h string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// watchJobEvents subscribes to the job's Server-Sent Events stream
// (GET /v1/jobs/{id}/events) and reports queue-position and state
// transitions as the server pushes them — no status polling at all. A
// dropped connection reconnects with Last-Event-ID so no transition is
// lost.
func watchJobEvents(server, token, id string, say func(string, ...any)) error {
	lastState, lastPos := "", -1
	var cursor uint64
	connected := false
	for {
		req, err := http.NewRequest("GET", server+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			return err
		}
		req.Header.Set("Authorization", "Bearer "+token)
		req.Header.Set("Accept", "text/event-stream")
		if cursor > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(cursor, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if connected {
				// The stream worked before; treat this as a transient drop.
				time.Sleep(200 * time.Millisecond)
				continue
			}
			return err
		}
		if resp.StatusCode == http.StatusNotFound && connected {
			// The server retains a bounded job history; a terminal job can
			// be evicted between reconnects. The final state is unknowable,
			// but the job did exist and ran — do not report it as a failure.
			resp.Body.Close()
			say("  %s evicted from the server's job history before its final state was observed\n", id)
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			var body map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			return fmt.Errorf("GET /v1/jobs/%s/events: %d %v", id, resp.StatusCode, body)
		}
		connected = true
		done, jobErr := drainJobStream(resp.Body, id, &cursor, &lastState, &lastPos, say)
		resp.Body.Close()
		if done {
			return jobErr
		}
		// Stream ended without a terminal event (server restart, slow-
		// consumer eviction): reconnect and resume after the last cursor.
		time.Sleep(200 * time.Millisecond)
	}
}

// drainJobStream consumes SSE frames until the stream ends, reporting
// transitions. It returns done=true once a terminal state was observed
// (jobErr non-nil for failed/canceled) and done=false when the stream
// dropped first and the caller should reconnect.
func drainJobStream(r io.Reader, id string, cursor *uint64, lastState *string, lastPos *int, say func(string, ...any)) (done bool, jobErr error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data bytes.Buffer
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated frame.
			if data.Len() > 0 {
				if done, jobErr = handleJobEvent(typ, data.Bytes(), id, cursor, lastState, lastPos, say); done {
					return done, jobErr
				}
			}
			data.Reset()
			typ = ""
		case strings.HasPrefix(line, "id:"):
			if v, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64); err == nil {
				*cursor = v
			}
		case strings.HasPrefix(line, "event:"):
			typ = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimSpace(line[5:]))
		case strings.HasPrefix(line, ":"):
			// Comment (reset/eviction notices): diagnostics only.
		}
	}
	return false, nil
}

// handleJobEvent reports one stream event's transition and spots
// terminal states.
func handleJobEvent(typ string, data []byte, id string, cursor *uint64, lastState *string, lastPos *int, say func(string, ...any)) (bool, error) {
	var ev struct {
		Cursor uint64 `json:"cursor"`
		Job    struct {
			State         string `json:"state"`
			QueuePosition int    `json:"queue_position"`
			Reschedules   int    `json:"reschedules"`
			Error         string `json:"error"`
		} `json:"job"`
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		return false, nil // tolerate unknown frames
	}
	if ev.Cursor > *cursor {
		*cursor = ev.Cursor
	}
	state, pos := ev.Job.State, ev.Job.QueuePosition
	switch typ {
	case "rescheduled":
		say("  %s recovery: task rescheduled mid-run (%d so far)\n", id, ev.Job.Reschedules)
	case "host-failure":
		say("  %s recovery: a host running this job failed\n", id)
	}
	if state != *lastState || pos != *lastPos {
		switch {
		case state == services.JobStateQueued && pos > 0:
			say("  %s %s (queue position %d)\n", id, state, pos)
		default:
			say("  %s %s\n", id, state)
		}
		*lastState, *lastPos = state, pos
	}
	switch state {
	case services.JobStateDone:
		return true, nil
	case services.JobStateFailed, services.JobStateCanceled:
		return true, fmt.Errorf("job %s ended %s: %s", id, state, ev.Job.Error)
	}
	return false, nil
}

// buildGraph resolves the submission source: a JSON file or a built-in.
func buildGraph(file, app string, n int) (*afg.Graph, error) {
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return afg.DecodeJSON(data)
	case app == "les":
		return tasklib.BuildLinearEquationSolver(n, 1)
	case app == "c3i":
		return tasklib.BuildC3IPipeline(n, 1)
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
}

func login(base, user, pass string) (string, error) {
	body, _ := json.Marshal(map[string]string{"user": user, "password": pass})
	resp, err := http.Post(base+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if out.Error != "" {
		return "", fmt.Errorf("login: %s", out.Error)
	}
	return out.Token, nil
}

func importGraph(base, token string, g *afg.Graph) (string, error) {
	data, err := g.EncodeJSON()
	if err != nil {
		return "", err
	}
	out, code, _, err := request(base, token, "POST", "/apps/import", data)
	if err != nil {
		return "", err
	}
	if code >= 300 {
		return "", fmt.Errorf("POST /apps/import: %d %v", code, out)
	}
	id, ok := out["id"].(string)
	if !ok {
		return "", fmt.Errorf("import failed: %v", out)
	}
	return id, nil
}

// request issues one authenticated JSON request, returning the decoded
// body, the status code and the response headers (Retry-After on shed
// responses). Transport failures are errors; HTTP error codes are
// returned for the caller to interpret.
func request(base, token, method, path string, body []byte) (map[string]any, int, http.Header, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode, resp.Header, nil
}
