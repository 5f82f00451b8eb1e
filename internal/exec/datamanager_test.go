package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/frame"
	"vdce/internal/netmodel"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// rawFrame builds one data frame by hand, independently of endpoint.send.
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
// port no edge feeds — that the tests hand raw frames to through
// receive.
type demuxRig struct {
	t      *testing.T
	e      *Engine
	dm     *endpoint
	ri     *runInputs
	failed chan error
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
	return d
}

// receive hands one frame the endpoint must accept.
func (d *demuxRig) receive(f []byte) {
	d.t.Helper()
	if err := d.dm.receive(f); err != nil {
		d.t.Fatalf("endpoint refused a sound frame: %v", err)
	}
}

// deliverTo hands the endpoint a valid frame for the consumer's port
// and returns what landed in the slot: receive fills it before it
// returns, or never.
func (d *demuxRig) deliverTo(port int, v tasklib.Value) tasklib.Value {
	d.t.Helper()
	d.receive(rawFrame(d.t, demuxSeq, demuxConsumer, port, v))
	slot := d.ri.slot(demuxConsumer, port)
	select {
	case <-slot.ready:
		return slot.val
	default:
		d.t.Fatalf("port %d not filled when receive returned", port)
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

func TestDemuxRoutesDropsAndFailsWithoutBlocking(t *testing.T) {
	d := newDemuxRig(t)

	if got := d.deliverTo(0, "zero"); got != "zero" {
		t.Fatalf("port 0 = %v", got)
	}

	// A frame for a run the table does not hold is counted and dropped.
	d.receive(rawFrame(t, demuxSeq+1, demuxConsumer, 1, "stray"))
	d.deliverTo(1, 1.5)
	if got := d.e.TransferStats().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if len(d.failed) != 0 {
		t.Fatalf("a stray frame failed the run: %v", <-d.failed)
	}

	// A second delivery to a filled port fails the run, not the sender:
	// the next frame still lands.
	d.receive(rawFrame(t, demuxSeq, demuxConsumer, 0, "again"))
	d.deliverTo(2, []float64{1})
	d.wantFailure("port 0 twice")
	if got := d.ri.slot(demuxConsumer, 0).val; got != "zero" {
		t.Fatalf("duplicate overwrote the slot: %v", got)
	}

	// Ports the run does not expect: beyond the task's ports, on a task
	// beyond the graph, and a real port that no edge feeds.
	for _, addr := range [][2]int{{demuxConsumer, demuxConsumer}, {99, 0}, {demuxUnfed, 0}} {
		d.receive(rawFrame(t, demuxSeq, addr[0], addr[1], "x"))
	}
	d.deliverTo(3, "three")
	for i := 0; i < 3; i++ {
		d.wantFailure("unexpected port")
	}

	// A sound frame around an undecodable value fails the run it is
	// addressed to; the framing is intact, so the sender is not at fault.
	bad := make([]byte, routeHeader, routeHeader+2)
	binary.LittleEndian.PutUint64(bad[0:8], demuxSeq)
	binary.LittleEndian.PutUint32(bad[8:12], demuxConsumer)
	binary.LittleEndian.PutUint32(bad[12:16], 4)
	d.receive(sealFrame(append(bad, 0xEE, 1)))
	d.deliverTo(5, "five")
	d.wantFailure("unknown type tag")
}

// TestReaderReleasesABulkFrameBuffer hands the endpoint one frame above
// maxIdleFrameBuf and then a small one: the slot holds its own copy of
// the bulk value, so the frame buffer (which send does not keep at
// that size) can be overwritten the moment receive returns, and both
// values still arrive intact.
func TestReaderReleasesABulkFrameBuffer(t *testing.T) {
	d := newDemuxRig(t)
	bulk := make([]float64, maxIdleFrameBuf/8+1000)
	for i := range bulk {
		bulk[i] = float64(i)
	}
	f := rawFrame(t, demuxSeq, demuxConsumer, 0, bulk)
	d.receive(f)
	clear(f)
	got, ok := d.ri.slot(demuxConsumer, 0).val.([]float64)
	if !ok || len(got) != len(bulk) || got[1] != 1 || got[len(got)-1] != bulk[len(bulk)-1] {
		t.Fatalf("bulk value arrived as %T of %d elements", got, len(got))
	}
	if got := d.deliverTo(1, "small"); got != "small" {
		t.Fatalf("frame after the bulk one = %v", got)
	}
	if len(d.failed) != 0 {
		t.Fatalf("run failed: %v", <-d.failed)
	}
}

// TestIdleHostsPinNoFrameBuffer runs a 160x160 linear solver with its
// tasks spread over eight hosts, five of which send, and then checks
// what the idle endpoint keeps: frame buffers go back to one pool,
// which two collections empty, so no host still holds the size of the
// largest matrix it moved.
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
	run(8) // opens the endpoint
	before := heap()
	run(160)
	delta := heap() - before
	t.Logf("heap after an LES-160 run on idle hosts: %+d bytes", delta)
	if delta >= 512<<10 {
		t.Fatalf("idle hosts keep %d bytes after the run, budget %d", delta, 512<<10)
	}
}

// TestFramingFaultTearsTheStreamDown hands the endpoint frames that
// fail their framing checks. What is torn down is the one frame's
// delivery, not a connection: each is refused with an error for the
// sender, reaches no slot and fails no run, and the next sound frame
// still lands.
func TestFramingFaultTearsTheStreamDown(t *testing.T) {
	good := func() []byte { return rawFrame(t, demuxSeq, demuxConsumer, 7, "late") }
	for _, tc := range []struct {
		name  string
		frame func() []byte
	}{
		{"checksum", func() []byte {
			f := good()
			f[len(f)-1] ^= 1
			return f
		}},
		{"oversized", func() []byte {
			// Only the header: the length alone must condemn it.
			f := make([]byte, frame.HeaderSize)
			binary.LittleEndian.PutUint32(f[0:4], frame.MaxPayload+1)
			return f
		}},
		{"too short for a routing header", func() []byte {
			return sealFrame(make([]byte, routeHeader))
		}},
		{"truncated", func() []byte {
			f := good()
			return f[:len(f)-3]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDemuxRig(t)
			d.deliverTo(0, "before")
			if err := d.dm.receive(tc.frame()); err == nil {
				t.Fatal("the endpoint accepted a frame that fails its checks")
			}
			if len(d.failed) != 0 || d.ri.slot(demuxConsumer, 7).filled.Load() {
				t.Fatal("a frame that failed its checks reached the demux table")
			}
			if got := d.deliverTo(1, "after"); got != "after" {
				t.Fatalf("frame after the fault = %v", got)
			}
		})
	}
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

// chain builds source -> Pass_Through on the rig's first two hosts.
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

// TestSendToAClosedEndpointFailsTheProducer marks the endpoint closed
// while a run is registered, as Close does: the producing task's send
// is refused with ErrEngineClosed, which is that task's error, and the
// parked consumer is released.
func TestSendToAClosedEndpointFailsTheProducer(t *testing.T) {
	r := newRig(t, 2)
	g, table := chain(t, r, "Spin", map[string]string{"ms": "60"})
	errCh := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(context.Background(), g, table)
		errCh <- err
	}()
	awaitRegistered(t, r.engine, 1)
	r.engine.dm.mu.Lock()
	r.engine.dm.closed = true
	r.engine.dm.mu.Unlock()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("the run outlived its refused send")
	}
	if !errors.Is(err, ErrEngineClosed) || !strings.Contains(err.Error(), "task 0 (Spin): exec: send to child 1") {
		t.Fatalf("err = %v, want task 0's send refused with ErrEngineClosed", err)
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
// one engine and checks what is left behind: every frame counted, none
// dropped, and not one goroutine more than before the first run — the
// data plane starts none.
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
	before := runtime.NumGoroutine()
	for i := 0; i < jobs; i++ {
		if _, err := r.engine.Execute(context.Background(), g, table); err != nil {
			t.Fatal(err)
		}
	}
	st := r.engine.TransferStats()
	if want := int64(jobs * len(g.Edges)); st.Frames != want || st.Dropped != 0 {
		t.Fatalf("frames = %d (want %d), dropped = %d", st.Frames, want, st.Dropped)
	}
	// A controller that has signalled its run may not have returned yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %d jobs: %d goroutines, %d before the first", jobs, runtime.NumGoroutine(), before)
		}
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
	dm := r.engine.dm
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
	if r.engine.dm != nil {
		t.Fatal("Close left the endpoint in place")
	}
	if err := dm.receive(rawFrame(t, 1, 1, 0, "late")); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("send to a closed endpoint: %v, want ErrEngineClosed", err)
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
// and 26. The C3I tasks building their results in place, and a decoded
// track list's strings sharing one block, take the former from 190 to
// 102; handing each frame to the endpoint by call, with no stream
// between them, to 97.
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
	}{{c3i, 100}, {solo, 32}} {
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

// TestDilationChargesModeledTransfer runs a two-site chain at a
// communication-to-computation ratio of 10 — a 10 ms Spin whose output
// crosses a 100 ms link — and reads when the consumer started: with
// dilation on, no earlier than the producer's end plus the transfer the
// testbed network prices; with it off, without waiting for the link.
func TestDilationChargesModeledTransfer(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Sites: 2, HostsPerGroup: 1, Seed: 11,
		SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	link := netmodel.Link{Latency: 100 * time.Millisecond, BytesPerSec: 1e9}
	if err := tb.Net.SetLink("site0", "site1", link); err != nil {
		t.Fatal(err)
	}
	// chain builds producer -> consumer with the producer on site0 and
	// the consumer on site1. With consumerFirst the consumer has task ID
	// 0, so the table, which lists a producer before its consumer, is not
	// in task order: the producer's site must come from its task, not
	// from the entry at its ID.
	chain := func(consumerFirst bool) (g *afg.Graph, src afg.TaskID, table *core.AllocationTable) {
		g = afg.NewGraph("ccr10")
		var dst afg.TaskID
		if consumerFirst {
			dst = g.AddTask("Pass_Through", "util", 1, 1)
			src = g.AddTask("Spin", "util", 0, 1)
		} else {
			src = g.AddTask("Spin", "util", 0, 1)
			dst = g.AddTask("Pass_Through", "util", 1, 1)
		}
		if err := g.SetProps(src, afg.Properties{Args: map[string]string{"ms": "10"}}); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(src, 0, dst, 0, 0); err != nil {
			t.Fatal(err)
		}
		table = &core.AllocationTable{App: g.Name}
		for i, id := range []afg.TaskID{src, dst} {
			site := tb.Sites[i]
			table.Entries = append(table.Entries, core.Placement{Task: id, TaskName: g.Tasks[id].Name,
				Site: site.Name, Hosts: []string{site.Hosts[0].Name}, Predicted: time.Millisecond})
		}
		return g, src, table
	}
	for _, run := range []struct {
		scale         float64
		consumerFirst bool
	}{{1, false}, {1, true}, {0, false}} {
		scale := run.scale
		g, src, table := chain(run.consumerFirst)
		e := &Engine{Reg: tasklib.Default(), TB: tb, DilationScale: scale}
		res, err := e.Execute(context.Background(), g, table)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		var prod, cons TaskRun
		for _, r := range res.Runs {
			if r.Task == src {
				prod = r
			} else {
				cons = r
			}
		}
		val, err := tasklib.EncodeValue(res.Outputs[src][0])
		if err != nil {
			t.Fatal(err)
		}
		transfer, err := tb.Net.TransferTime(int64(len(val)), "site0", "site1")
		if err != nil {
			t.Fatal(err)
		}
		gap := cons.Start.Sub(prod.End)
		t.Logf("DilationScale %g: producer ran %v, consumer started %v after it, modeled transfer %v",
			scale, prod.End.Sub(prod.Start), gap, transfer)
		if scale > 0 && gap < transfer {
			t.Errorf("with dilation on, the consumer started %v after its producer ended, before the %v transfer", gap, transfer)
		}
		if scale == 0 && gap >= transfer {
			t.Errorf("with dilation off, the consumer waited %v for a %v transfer", gap, transfer)
		}
	}
}
