package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/frame"
	"vdce/internal/tasklib"
)

// rawFrame builds one data frame by hand, independently of stream.send.
func rawFrame(t *testing.T, seq uint64, task, port int, v tasklib.Value) []byte {
	t.Helper()
	val, err := tasklib.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, routeHeader, routeHeader+len(val))
	binary.LittleEndian.PutUint64(payload[0:8], seq)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(task))
	binary.LittleEndian.PutUint32(payload[12:16], uint32(port))
	return sealFrame(append(payload, val...))
}

func sealFrame(payload []byte) []byte { return frame.Append(nil, payload) }

// demuxRig is an endpoint with one hand-registered run — eight
// producers feeding the eight ports of task 8, plus task 9 whose single
// port no edge feeds — and a raw client connection to inject frames on.
type demuxRig struct {
	t      *testing.T
	e      *Engine
	dm     *endpoint
	ri     *runInputs
	failed chan error
	conn   net.Conn
}

const (
	demuxSeq      = 42
	demuxConsumer = 8
	demuxUnfed    = 9
)

func newDemuxRig(t *testing.T) *demuxRig {
	t.Helper()
	e := &Engine{}
	t.Cleanup(e.Close)
	dm, err := e.dataManager()
	if err != nil {
		t.Fatal(err)
	}
	g := afg.NewGraph("demux")
	for i := 0; i < demuxConsumer; i++ {
		g.AddTask("Vector_Generate", "matrix", 0, 1)
	}
	g.AddTask("Synthetic_Work", "util", demuxConsumer, 1)
	g.AddTask("Pass_Through", "util", 1, 1)
	for i := 0; i < demuxConsumer; i++ {
		if err := g.Connect(afg.TaskID(i), 0, demuxConsumer, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := &demuxRig{t: t, e: e, dm: dm, failed: make(chan error, 16)}
	d.ri, err = newRunInputs(demuxSeq, g, func(err error) { d.failed <- err })
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.register(d.ri); err != nil {
		t.Fatal(err)
	}
	d.conn = d.dial()
	return d
}

func (d *demuxRig) dial() net.Conn {
	d.t.Helper()
	conn, err := net.Dial("tcp", d.dm.ln.Addr().String())
	if err != nil {
		d.t.Fatal(err)
	}
	d.t.Cleanup(func() { conn.Close() })
	return conn
}

func (d *demuxRig) write(conn net.Conn, b []byte) {
	d.t.Helper()
	if _, err := conn.Write(b); err != nil {
		d.t.Fatal(err)
	}
}

// deliverTo sends a valid frame for the consumer's port on conn and
// waits for the slot to fill. A reader handles its stream's frames in
// order, so everything written to conn before it has been handled too.
func (d *demuxRig) deliverTo(conn net.Conn, port int, v tasklib.Value) tasklib.Value {
	d.t.Helper()
	d.write(conn, rawFrame(d.t, demuxSeq, demuxConsumer, port, v))
	slot := d.ri.slot(demuxConsumer, port)
	select {
	case <-slot.ready:
		return slot.val
	case <-time.After(5 * time.Second):
		d.t.Fatalf("port %d never filled: the reader is blocked or gone", port)
		return nil
	}
}

func (d *demuxRig) wantFailure(substr string) {
	d.t.Helper()
	select {
	case err := <-d.failed:
		if !strings.Contains(err.Error(), substr) {
			d.t.Fatalf("run failed with %q, want %q", err, substr)
		}
	default:
		d.t.Fatalf("run not failed, want %q", substr)
	}
}

// wantTornDown asserts the endpoint closed its end of conn.
func (d *demuxRig) wantTornDown(conn net.Conn) {
	d.t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := conn.Read(make([]byte, 1))
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		d.t.Fatalf("stream still up after a framing fault (read: %v)", err)
	}
}

func TestDemuxRoutesDropsAndFailsWithoutBlocking(t *testing.T) {
	d := newDemuxRig(t)

	if got := d.deliverTo(d.conn, 0, "zero"); got != "zero" {
		t.Fatalf("port 0 = %v", got)
	}

	// A frame for a run the table does not hold is counted and dropped.
	d.write(d.conn, rawFrame(t, demuxSeq+1, demuxConsumer, 1, "stray"))
	d.deliverTo(d.conn, 1, 1.5)
	if got := d.e.TransferStats().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if len(d.failed) != 0 {
		t.Fatalf("a stray frame failed the run: %v", <-d.failed)
	}

	// A second delivery to a filled port fails the run and the reader
	// moves on: the next frame still lands.
	d.write(d.conn, rawFrame(t, demuxSeq, demuxConsumer, 0, "again"))
	d.deliverTo(d.conn, 2, []float64{1})
	d.wantFailure("port 0 twice")
	if got := d.ri.slot(demuxConsumer, 0).val; got != "zero" {
		t.Fatalf("duplicate overwrote the slot: %v", got)
	}

	// Ports the run does not expect: beyond the task's ports, on a task
	// beyond the graph, and a real port that no edge feeds.
	for _, addr := range [][2]int{{demuxConsumer, demuxConsumer}, {99, 0}, {demuxUnfed, 0}} {
		d.write(d.conn, rawFrame(t, demuxSeq, addr[0], addr[1], "x"))
	}
	d.deliverTo(d.conn, 3, "three")
	for i := 0; i < 3; i++ {
		d.wantFailure("unexpected port")
	}

	// A sound frame around an undecodable value fails the run it is
	// addressed to; the framing is intact, so the stream stays up.
	bad := make([]byte, routeHeader, routeHeader+2)
	binary.LittleEndian.PutUint64(bad[0:8], demuxSeq)
	binary.LittleEndian.PutUint32(bad[8:12], demuxConsumer)
	binary.LittleEndian.PutUint32(bad[12:16], 4)
	d.write(d.conn, sealFrame(append(bad, 0xEE, 1)))
	d.deliverTo(d.conn, 5, "five")
	d.wantFailure("unknown type tag")
}

// TestReaderReleasesABulkFrameBuffer sends one frame above
// maxIdleFrameBuf and then a small one on the same stream: the reader
// drops its buffer after the first (as stream.send does), and both
// values still arrive intact.
func TestReaderReleasesABulkFrameBuffer(t *testing.T) {
	d := newDemuxRig(t)
	bulk := make([]float64, maxIdleFrameBuf/8+1000)
	for i := range bulk {
		bulk[i] = float64(i)
	}
	got, ok := d.deliverTo(d.conn, 0, bulk).([]float64)
	if !ok || len(got) != len(bulk) || got[1] != 1 || got[len(got)-1] != bulk[len(bulk)-1] {
		t.Fatalf("bulk value arrived as %T of %d elements", got, len(got))
	}
	if got := d.deliverTo(d.conn, 1, "small"); got != "small" {
		t.Fatalf("frame after the bulk one = %v", got)
	}
	if len(d.failed) != 0 {
		t.Fatalf("run failed: %v", <-d.failed)
	}
}

// TestIdleHostsPinNoFrameBuffer runs a 160x160 linear solver with its
// tasks spread over eight hosts, so five source hosts each carry a
// stream and a reader, and then checks what the idle endpoint keeps:
// frame buffers go back to one pool, which two collections empty, so
// no stream or reader still holds the size of the largest matrix it
// moved.
func TestIdleHostsPinNoFrameBuffer(t *testing.T) {
	r := newRig(t, 8)
	run := func(n int) {
		t.Helper()
		g, err := tasklib.BuildLinearEquationSolver(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		table := &core.AllocationTable{App: g.Name}
		hosts := r.tb.Sites[0].Hosts
		next := 0
		for _, task := range g.Tasks {
			task.Props.MachineType = "" // random testbed arch mix
			p := core.Placement{Task: task.ID, TaskName: task.Name, Site: "site0", Predicted: time.Millisecond}
			for i := 0; i < max(task.Props.Nodes, 1); i++ {
				p.Hosts = append(p.Hosts, hosts[next].Name)
				next++
			}
			table.Entries = append(table.Entries, p)
		}
		if next != 8 {
			t.Fatalf("the solver spans %d hosts, want 8", next)
		}
		if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	run(8) // opens the endpoint and dials the same five streams
	before := heap()
	run(160)
	delta := heap() - before
	t.Logf("heap after an LES-160 run on idle hosts: %+d bytes", delta)
	if st := r.engine.TransferStats(); st.Streams != 5 || st.Readers != 5 {
		t.Fatalf("streams = %d, readers = %d, want 5 and 5", st.Streams, st.Readers)
	}
	if delta >= 512<<10 {
		t.Fatalf("idle hosts keep %d bytes after the run, budget %d", delta, 512<<10)
	}
}

func TestFramingFaultTearsTheStreamDown(t *testing.T) {
	good := func(d *demuxRig) []byte { return rawFrame(t, demuxSeq, demuxConsumer, 7, "late") }
	faults := map[string]func(d *demuxRig) []byte{
		"checksum": func(d *demuxRig) []byte {
			f := good(d)
			f[len(f)-1] ^= 1
			return f
		},
		"oversized": func(d *demuxRig) []byte {
			// Only the header is sent: the reader must give up on the
			// length alone, not wait for (or allocate) 16 MiB.
			f := make([]byte, frame.HeaderSize)
			binary.LittleEndian.PutUint32(f[0:4], frame.MaxPayload+1)
			return f
		},
		"too short for a routing header": func(d *demuxRig) []byte {
			return sealFrame(make([]byte, routeHeader))
		},
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			d := newDemuxRig(t)
			d.deliverTo(d.conn, 0, "before")
			d.write(d.conn, fault(d))
			d.wantTornDown(d.conn)
			// Other streams are unaffected, and nothing was delivered or
			// failed on the strength of the bad frame.
			d.deliverTo(d.dial(), 1, "other stream")
			if len(d.failed) != 0 || d.ri.slot(demuxConsumer, 7).filled.Load() {
				t.Fatal("a frame that failed its checks reached the demux table")
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		d := newDemuxRig(t)
		f := good(d)
		d.write(d.conn, f[:len(f)-3])
		d.conn.(*net.TCPConn).CloseWrite()
		d.wantTornDown(d.conn)
		if d.ri.slot(demuxConsumer, 7).filled.Load() {
			t.Fatal("a frame cut short was delivered")
		}
	})
}

// registerHold adds a "Hold" task to the rig's catalog: a source that
// produces nothing until the test ends, so whatever consumes it stays
// parked on its inputs without a Spin burning a core in the background.
func registerHold(t *testing.T, r *rig) {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	err := r.engine.Reg.Register(tasklib.Spec{Name: "Hold", Library: "test", OutPorts: 1,
		Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			<-release
			return []tasklib.Value{0.0}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
}

// onePerHost places g's tasks on the rig's hosts in order, a host
// apiece, so no task queues behind another for a machine.
func onePerHost(r *rig, g *afg.Graph) *core.AllocationTable {
	table := &core.AllocationTable{App: g.Name}
	for i, task := range g.Tasks {
		table.Entries = append(table.Entries, core.Placement{Task: task.ID, TaskName: task.Name,
			Site: "site0", Hosts: []string{r.tb.Sites[0].Hosts[i].Name}, Predicted: time.Millisecond})
	}
	return table
}

// chain builds source -> Pass_Through on the rig's first two hosts, so
// the stream the payload crosses is host 0's.
func chain(t *testing.T, r *rig, source string, args map[string]string) (*afg.Graph, *core.AllocationTable) {
	t.Helper()
	g := afg.NewGraph("chain")
	src := g.AddTask(source, "util", 0, 1)
	pass := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.SetProps(src, afg.Properties{Args: args}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, 0, pass, 0, 0); err != nil {
		t.Fatal(err)
	}
	return g, onePerHost(r, g)
}

// awaitRegistered blocks until the engine's next run has entered the
// demux table, i.e. its controllers are started or about to be.
func awaitRegistered(t *testing.T, e *Engine, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.dmMu.Lock()
		dm := e.dm
		e.dmMu.Unlock()
		if dm != nil {
			dm.mu.Lock()
			registered := dm.runs[seq] != nil
			dm.mu.Unlock()
			if registered {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %d never registered", seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// killStreams closes every dialed stream's connection under the
// stream's feet, as a network fault would.
func killStreams(dm *endpoint) (killed int) {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	for _, s := range dm.streams {
		s.mu.Lock()
		if s.conn != nil {
			s.conn.Close()
			killed++
		}
		s.mu.Unlock()
	}
	return killed
}

func TestStreamKilledMidRunIsRedialedOnce(t *testing.T) {
	r := newRig(t, 2)
	g, table := chain(t, r, "Spin", map[string]string{"ms": "60"})
	ctx := context.Background()
	if _, err := r.engine.Execute(ctx, g, table); err != nil { // dials host 0's stream
		t.Fatal(err)
	}
	next := r.engine.appSeq.Load() + 1
	errCh := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(ctx, g, table)
		errCh <- err
	}()
	awaitRegistered(t, r.engine, next)
	if n := killStreams(r.engine.dm); n != 1 {
		t.Fatalf("killed %d streams, want host 0's one", n)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("run across a killed stream: %v", err)
	}
	st := r.engine.TransferStats()
	if st.Redials != 1 || st.Streams != 1 {
		t.Fatalf("redials = %d, open streams = %d, want 1 and 1", st.Redials, st.Streams)
	}

	// With the endpoint unreachable the one redial fails too, and the
	// producing task reports it; the parked consumer is released.
	r.engine.dm.ln.Close()
	killStreams(r.engine.dm)
	_, err := r.engine.Execute(ctx, g, table)
	if err == nil || !strings.Contains(err.Error(), "task 0 (Spin): exec: send to child 1") {
		t.Fatalf("err = %v, want task 0's send failure", err)
	}
	if got := r.engine.TransferStats().Redials; got != 2 {
		t.Fatalf("redials = %d, want 2 (one per failed write, never a loop)", got)
	}
}

// TestParkedConsumerReleasedBySiblingFailure: cancellation reaches a
// controller waiting on its input slots through the run context — there
// is no listener to close any more.
func TestParkedConsumerReleasedBySiblingFailure(t *testing.T) {
	r := newRig(t, 4)
	registerHold(t, r)
	g := afg.NewGraph("parked")
	hold := g.AddTask("Hold", "test", 0, 1)
	pass := g.AddTask("Pass_Through", "util", 1, 1) // parked on hold's output
	vg := g.AddTask("Vector_Generate", "matrix", 0, 1)
	lu := g.AddTask("LU_Decomposition", "matrix", 1, 1) // fails: fed a vector
	if err := g.Connect(hold, 0, pass, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(vg, 0, lu, 0, 0); err != nil {
		t.Fatal(err)
	}
	table := onePerHost(r, g)
	t0 := time.Now()
	_, err := r.engine.Execute(context.Background(), g, table)
	if err == nil || !strings.Contains(err.Error(), "task 3 (LU_Decomposition)") {
		t.Fatalf("err = %v, want the sibling's type error", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("Execute took %v with a consumer parked on inputs", d)
	}
	r.engine.dm.mu.Lock()
	left := len(r.engine.dm.runs)
	r.engine.dm.mu.Unlock()
	if left != 0 {
		t.Fatalf("demux table still holds %d runs", left)
	}
}

func TestNoEdgeRunTouchesNoSocket(t *testing.T) {
	r := newRig(t, 1)
	g := afg.NewGraph("solo")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, r.tb.Sites[0].Hosts[0].Name, "1")
	if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
		t.Fatal(err)
	}
	if st := r.engine.TransferStats(); st != (TransferStats{}) || r.engine.dm != nil {
		t.Fatalf("a graph without edges opened the Data Manager: %+v", st)
	}
}

// TestConnectionsScaleWithHostsNotJobs runs many applications through
// one engine and checks what is left open: at most one stream and one
// reader per host beside the one listener.
func TestConnectionsScaleWithHostsNotJobs(t *testing.T) {
	const hosts = 8
	jobs := 1000
	if testing.Short() || raceEnabled {
		jobs = 100
	}
	r := newRig(t, hosts)
	g, err := tasklib.BuildC3IPipeline(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	table := r.schedule(t, g)
	for i := 0; i < jobs; i++ {
		if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
			t.Fatal(err)
		}
	}
	st := r.engine.TransferStats()
	if !st.Listening || st.Streams < 1 || st.Streams > hosts || st.Readers > hosts {
		t.Fatalf("after %d jobs on %d hosts: %+v", jobs, hosts, st)
	}
	if want := int64(jobs * len(g.Edges)); st.Frames != want || st.Dropped != 0 || st.Redials != 0 {
		t.Fatalf("frames = %d (want %d), dropped = %d, redials = %d", st.Frames, want, st.Dropped, st.Redials)
	}
}

func TestCloseReleasesEverythingAndFailsRuns(t *testing.T) {
	r := newRig(t, 2)
	registerHold(t, r)
	g, table := chain(t, r, "Hold", nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(context.Background(), g, table)
		errCh <- err
	}()
	awaitRegistered(t, r.engine, 1)
	r.engine.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("in-flight run ended with %v, want ErrEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a run parked on its inputs")
	}
	r.engine.Close() // idempotent
	st := r.engine.TransferStats()
	if st.Listening || st.Streams != 0 || st.Readers != 0 {
		t.Fatalf("after Close: %+v", st)
	}
	solo := afg.NewGraph("solo")
	solo.AddTask("Spin", "util", 0, 1)
	soloTable := spinTable(t, solo, r.tb.Sites[0].Hosts[0].Name, "1")
	if _, err := r.engine.Execute(context.Background(), g, table); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Execute after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := r.engine.Execute(context.Background(), solo, soloTable); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Execute of an edgeless graph after Close: %v, want ErrEngineClosed", err)
	}
}

// TestExecuteAllocBudget pins the per-run allocation cost of the exec
// layer on the ledger's c3i-stream graph shape (six tasks, five edges)
// and on its ctl-churn shape (one task, no edges: the per-run share
// alone). The per-task listener, per-edge dial and per-message gob path
// cost 2,508 for the former; per-attempt tickers and a run carried in
// maps and heap copies cost 254 and 38; the state block measures 191
// and 26.
func TestExecuteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := newRig(t, 8)
	c3i, err := tasklib.BuildC3IPipeline(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	solo := afg.NewGraph("solo")
	id := solo.AddTask("Vector_Generate", "matrix", 0, 1)
	if err := solo.SetProps(id, afg.Properties{Args: map[string]string{"n": "8", "seed": "1"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		g      *afg.Graph
		budget float64
	}{{c3i, 220}, {solo, 32}} {
		table := r.schedule(t, tc.g)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := r.engine.Execute(ctx, tc.g, table); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Execute(%s, %d tasks, %d edges): %.0f allocs/run", tc.g.Name, len(tc.g.Tasks), len(tc.g.Edges), allocs)
		if allocs > tc.budget {
			t.Fatalf("Execute(%s) allocates %.0f objects per run, budget %.0f", tc.g.Name, allocs, tc.budget)
		}
	}
}
