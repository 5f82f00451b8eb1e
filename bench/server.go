package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vdce/internal/afg"
	"vdce/internal/jobsapi"
	"vdce/internal/services"
)

// serverProc is one spawned vdce-server in the production shape: Site
// Manager RPC, monitor daemons, failure detector, circuit breakers and
// the durable store, reachable only over HTTP.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port of the editor + jobs API
	debug  string // http://host:port of the pprof listener
	token  string
	client *http.Client
	graphs []*afg.Graph
	apps   []string // imported application IDs, one per graph
	// importMS is how long each POST /apps/import took.
	importMS []float64
}

// buildServer compiles vdce-server into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	mod, err := moduleDir()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "vdce-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "vdce/cmd/vdce-server")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build vdce-server: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer spawns the binary on ephemeral ports with a fresh store
// directory, waits for its banner, logs in and imports the graphs.
func startServer(ctx context.Context, bin, storeDir string, graphs []*afg.Graph) (*serverProc, error) {
	cmd := exec.Command(bin,
		"-hosts", "8", "-groups", "2", "-seed", strconv.Itoa(testbedSeed),
		"-http", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-store-dir", storeDir)
	// The child must never outlive the harness, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{
		cmd: cmd,
		// One keep-alive connection carries submissions and listings, a
		// second the event stream.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	ready := make(chan error, 1)
	go func() {
		// The banner names both listeners; after it the server prints
		// nothing until shutdown, and the rest is drained so the child
		// never blocks on a full pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "debug: pprof + metrics on "); ok {
				p.debug = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if _, rest, ok := strings.Cut(line, "application editor: "); ok {
				p.base = strings.Fields(rest)[0]
				ready <- nil
				_, _ = io.Copy(io.Discard, stdout)
				return
			}
		}
		ready <- errors.New("vdce-server exited before printing its address")
	}()
	select {
	case err = <-ready:
	case <-ctx.Done():
		err = ctx.Err()
	case <-time.After(30 * time.Second):
		err = errors.New("vdce-server did not come up within 30s")
	}
	if err == nil {
		err = p.loginAndImport(ctx, graphs)
	}
	if err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// do sends one authenticated request and decodes the JSON answer.
func (p *serverProc) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if p.token != "" {
		req.Header.Set("Authorization", "Bearer "+p.token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (p *serverProc) loginAndImport(ctx context.Context, graphs []*afg.Graph) error {
	var login struct{ Token string }
	if err := p.do(ctx, "POST", "/login", []byte(`{"user":"user_k","password":"vdce"}`), http.StatusOK, &login); err != nil {
		return err
	}
	p.token = login.Token
	p.graphs = graphs
	for _, g := range graphs {
		body, err := g.EncodeJSON()
		if err != nil {
			return err
		}
		var app struct{ ID string }
		t0 := time.Now()
		if err := p.do(ctx, "POST", "/apps/import", body, http.StatusCreated, &app); err != nil {
			return err
		}
		p.importMS = append(p.importMS, time.Since(t0).Seconds()*1e3)
		p.apps = append(p.apps, app.ID)
	}
	return nil
}

// kill stops the child at once and reaps it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// stop asks for a graceful shutdown (the store compacts), falling back
// to a kill, and returns once the child has been reaped.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// termEvent is a terminal SSE event as the client saw it.
type termEvent struct {
	at  time.Time
	job services.JobStatus
}

// serverDriver drives a spawned vdce-server: submissions and listings
// on one connection from the generator, completions read off one
// GET /v1/events stream by the collector.
type serverDriver struct {
	proc   *serverProc
	setup  float64
	stream io.Closer
	// streamDone closes when the collector has left the stream.
	streamDone chan struct{}

	mu sync.Mutex
	// waiting holds submitted jobs whose terminal event is still to come;
	// early holds terminal events that overtook their POST response.
	waiting map[string]*jobRec
	early   map[string]termEvent
	// rows is every terminal row a listing returned, by job ID.
	rows    map[string]listRow
	pageMS  []float64
	settled chan struct{} // signalled on every terminal event
	// tokens, in a closed loop, gets one token back per settled job.
	tokens chan struct{}
}

type listRow struct {
	ID, State, Error string
}

// newServerDriver builds (or adopts) the binary, then sets the server up
// several times — spawn, login, imports, one cold pass over the apps —
// keeping the last and reporting the median set-up time.
func newServerDriver(ctx context.Context, cfg runConfig, tmp string) (*serverDriver, error) {
	graphs, err := cfg.spec.graphs(cfg.seed)
	if err != nil {
		return nil, err
	}
	bin := cfg.serverBin
	if bin == "" {
		if bin, err = buildServer(ctx, tmp); err != nil {
			return nil, err
		}
	}
	d := &serverDriver{settled: make(chan struct{}, 1)}
	var times []float64
	for began := time.Now(); moreSetup(len(times), time.Since(began)); {
		if d.proc != nil {
			d.closeStream()
			d.proc.kill()
		}
		t0 := time.Now()
		d.proc, err = startServer(ctx, bin, filepath.Join(tmp, fmt.Sprintf("store-%d", len(times))), graphs)
		if err != nil {
			return nil, err
		}
		if err := d.openStream(ctx); err != nil {
			d.close()
			return nil, err
		}
		if err := d.coldPass(ctx); err != nil {
			d.close()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	d.setup = median(times)
	return d, nil
}

// openStream connects GET /v1/events and starts the collector on it.
// The handler subscribes before it answers, so once the headers are in
// no later event can be missed.
func (d *serverDriver) openStream(ctx context.Context) error {
	// The stream outlives any one window, so it is not bound to a
	// window's context; close() ends it.
	req, err := http.NewRequest("GET", d.proc.base+"/v1/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+d.proc.token)
	resp, err := d.proc.client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /v1/events: %s", resp.Status)
	}
	d.stream = resp.Body
	d.streamDone = make(chan struct{})
	d.waiting = make(map[string]*jobRec)
	d.early = make(map[string]termEvent)
	d.rows = make(map[string]listRow)
	go d.collect(resp.Body)
	return nil
}

func (d *serverDriver) closeStream() {
	if d.stream != nil {
		d.stream.Close()
		<-d.streamDone
		d.stream = nil
	}
}

// collect reads SSE frames and settles each job at the arrival of its
// terminal event.
func (d *serverDriver) collect(body io.Reader) {
	defer close(d.streamDone)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var ev jobsapi.StreamEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			fmt.Fprintln(os.Stderr, "bench: undecodable SSE frame:", err)
			continue
		}
		if !ev.Job.Terminal() {
			continue
		}
		te := termEvent{at: at, job: ev.Job}
		d.mu.Lock()
		rec, waited := d.waiting[ev.Job.ID]
		if waited {
			delete(d.waiting, ev.Job.ID)
			settle(rec, te)
		} else {
			// Overtook its POST response (submit settles it), or belongs to
			// a job an earlier drain deadline abandoned.
			d.early[ev.Job.ID] = te
		}
		tokens := d.tokens
		d.mu.Unlock()
		select {
		case d.settled <- struct{}{}:
		default:
		}
		if waited && tokens != nil {
			// One token per record settled here, so at most as many as
			// the generator took: the send cannot block.
			tokens <- struct{}{}
		}
	}
}

// settle records a job's terminal event on its record.
func settle(rec *jobRec, te termEvent) {
	rec.terminal = true
	rec.observed = te.at
	rec.reschedules = te.job.Reschedules
	if te.job.Timings != nil {
		rec.t = *te.job.Timings
	}
	if te.job.State != services.JobStateDone || te.job.Error != "" {
		rec.fail = te.job.State + ": " + te.job.Error
	}
}

// post submits one imported application and returns the job ID.
func (d *serverDriver) post(ctx context.Context, app string) (string, error) {
	var resp struct{ Job services.JobStatus }
	err := d.proc.do(ctx, "POST", "/v1/apps/"+app+"/submit", nil, http.StatusAccepted, &resp)
	return resp.Job.ID, err
}

func (d *serverDriver) coldPass(ctx context.Context) error {
	recs := make([]jobRec, len(d.proc.apps))
	for i := range recs {
		recs[i].pick.graph = i
		d.submit(ctx, &recs[i])
		wctx, cancel := context.WithTimeout(ctx, drainAfter)
		d.finish(wctx)
		cancel()
		if !recs[i].terminal || recs[i].fail != "" {
			return fmt.Errorf("cold pass of app %d: %s", i, recs[i].fail)
		}
	}
	return nil
}

func (d *serverDriver) setupSeconds() float64 { return d.setup }

func (d *serverDriver) graphs() []*afg.Graph { return d.proc.graphs }

func (d *serverDriver) begin(ctx context.Context, mode windowMode) {
	d.mu.Lock()
	d.tokens = mode.tokens
	clear(d.early)
	clear(d.rows)
	d.pageMS = d.pageMS[:0]
	d.mu.Unlock()
}

func (d *serverDriver) submit(ctx context.Context, rec *jobRec) bool {
	rec.callStart = time.Now()
	id, err := d.post(ctx, d.proc.apps[rec.pick.graph])
	rec.callEnd = time.Now()
	if err != nil {
		// Refused, or cut off by the window's deadline: a failed job.
		rec.fail = "submit: " + err.Error()
		rec.terminal = true
		return true
	}
	rec.id = id
	d.mu.Lock()
	defer d.mu.Unlock()
	te, early := d.early[id]
	if early {
		delete(d.early, id)
		settle(rec, te)
	} else {
		d.waiting[id] = rec
	}
	return early
}

// finish waits for the outstanding terminal events.
func (d *serverDriver) finish(ctx context.Context) {
	for {
		d.mu.Lock()
		n := len(d.waiting)
		d.mu.Unlock()
		if n == 0 {
			return
		}
		select {
		case <-d.settled:
		case <-d.streamDone:
			return
		case <-ctx.Done():
			// Drain deadline: abandon the stragglers; they count as failed.
			d.mu.Lock()
			clear(d.waiting)
			d.mu.Unlock()
			return
		}
	}
}

// scan walks GET /v1/jobs?limit=100 to the end of the board, keeping
// every terminal row it sees.
func (d *serverDriver) scan(ctx context.Context) error {
	cursor := ""
	for {
		var page struct {
			Jobs       []listRow
			NextCursor string `json:"next_cursor"`
		}
		t0 := time.Now()
		if err := d.proc.do(ctx, "GET", "/v1/jobs?limit=100&cursor="+cursor, nil, http.StatusOK, &page); err != nil {
			return err
		}
		d.pageMS = append(d.pageMS, time.Since(t0).Seconds()*1e3)
		for _, row := range page.Jobs {
			if (services.JobStatus{State: row.State}).Terminal() {
				d.rows[row.ID] = row
			}
		}
		if page.NextCursor == "" {
			return nil
		}
		cursor = page.NextCursor
	}
}

// verify holds every settled job against the row a listing served for
// it: done, with no error. One last walk makes sure every row was seen.
func (d *serverDriver) verify(ctx context.Context, recs []jobRec) error {
	if err := d.scan(ctx); err != nil {
		return err
	}
	for i := range recs {
		rec := &recs[i]
		if !rec.terminal || rec.fail != "" {
			continue
		}
		row, ok := d.rows[rec.id]
		switch {
		case !ok:
			rec.fail = "no /v1/jobs row seen for " + rec.id
		case row.State != services.JobStateDone || row.Error != "":
			rec.fail = "/v1/jobs row " + row.State + ": " + row.Error
		}
	}
	return nil
}

func (d *serverDriver) cpuSeconds() (float64, error) {
	return procCPUSeconds(d.proc.cmd.Process.Pid)
}

// eachLine fetches an unauthenticated text endpoint of the child and
// calls fn per line until fn returns false.
func (p *serverProc) eachLine(ctx context.Context, url string, fn func(line string) bool) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() && fn(sc.Text()) {
	}
	return sc.Err()
}

// mallocs reads the child's allocation count off the pprof listener:
// its legacy heap text ends with the runtime's MemStats, the only public
// window on that counter.
func (d *serverDriver) mallocs() (float64, error) {
	n, found := 0.0, false
	err := d.proc.eachLine(context.Background(), d.proc.debug+"/debug/pprof/heap?debug=1", func(line string) bool {
		rest, ok := strings.CutPrefix(line, "# Mallocs = ")
		if ok {
			var perr error
			n, perr = strconv.ParseFloat(rest, 64)
			found = perr == nil
		}
		return !ok
	})
	if err == nil && !found {
		err = errors.New("pprof heap: no readable Mallocs line")
	}
	return n, err
}

func (d *serverDriver) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.proc.cmd.Process.Pid))
}

func (d *serverDriver) resetPeakRSS() error {
	return resetPeakRSS(strconv.Itoa(d.proc.cmd.Process.Pid))
}

// scrape fetches GET /metrics and sums each family's series.
func (d *serverDriver) scrape(ctx context.Context) (map[string]float64, error) {
	sums := make(map[string]float64)
	err := d.proc.eachLine(ctx, d.proc.base+"/metrics", func(line string) bool {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			return true
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			name, _, _ := strings.Cut(line[:sp], "{")
			sums[name] += v
		}
		return true
	})
	return sums, err
}

func (d *serverDriver) counters() (counters, error) {
	m, err := d.scrape(context.Background())
	if err != nil {
		return counters{}, err
	}
	return counters{
		completed:     m["vdce_jobs_completed_total"],
		events:        m["vdce_events_published_total"],
		execPeak:      m["vdce_exec_dispatch_peak"],
		rankCacheHits: m["vdce_scheduler_rankcache_hit_ratio"],
	}, nil
}

func (d *serverDriver) close() {
	d.closeStream()
	if d.proc != nil {
		d.proc.stop()
		d.proc = nil
	}
}
