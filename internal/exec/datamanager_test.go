package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/detect"
	"vdce/internal/frame"
	"vdce/internal/netmodel"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// rawFrame builds one data frame by hand, independently of send.
func rawFrame(t *testing.T, v tasklib.Value) []byte {
	t.Helper()
	val, err := tasklib.EncodeValue(v)
	if err != nil {
		t.Fatal(err)
	}
	return frame.Append(nil, val)
}

// slotRig is one run's Data Manager — eight producers feeding the eight
// ports of task 8, plus task 9 whose single port no edge feeds — whose
// slots the tests hand raw frames to through receive.
type slotRig struct {
	t  *testing.T
	ri *runInputs
}

const (
	rigConsumer = 8
	rigUnfed    = 9
)

func newSlotRig(t *testing.T) *slotRig {
	t.Helper()
	g := afg.NewGraph("slots")
	for i := 0; i < rigConsumer; i++ {
		g.AddTask("Vector_Generate", "matrix", 0, 1)
	}
	g.AddTask("Synthetic_Work", "util", rigConsumer, 1)
	g.AddTask("Pass_Through", "util", 1, 1)
	for i := 0; i < rigConsumer; i++ {
		if err := g.Connect(afg.TaskID(i), 0, rigConsumer, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	shape, err := g.Shape()
	if err != nil {
		t.Fatal(err)
	}
	ri := newRunInputs(shape)
	return &slotRig{t: t, ri: &ri}
}

// deliverTo hands the consumer's port a sound frame of v and returns
// what landed in the slot: receive fills it before it returns, or never.
func (d *slotRig) deliverTo(port int, v tasklib.Value) tasklib.Value {
	d.t.Helper()
	if err := d.receive(port, rawFrame(d.t, v)); err != nil {
		d.t.Fatalf("port %d refused a sound frame: %v", port, err)
	}
	if !d.ready(port) {
		d.t.Fatalf("port %d not filled when receive returned", port)
	}
	return d.ri.vals[d.ri.slot(rigConsumer, port)]
}

// receive hands the consumer's port one frame.
func (d *slotRig) receive(port int, f []byte) error {
	return d.ri.receive(d.ri.slot(rigConsumer, port), f)
}

// ready reports whether the consumer's port has been filled: a filled
// slot has its delivery's instant.
func (d *slotRig) ready(port int) bool {
	return !d.ri.slots[d.ri.slot(rigConsumer, port)].at.IsZero()
}

// TestDemuxRoutesDropsAndFailsWithoutBlocking: each port of the run has
// a slot of its own, receive fills it without waiting for the consumer,
// and a port no edge feeds has no slot to fill. The run's edge index is
// the whole routing: there is no run to look up, so nothing to drop,
// and Execute refuses a graph whose Shape has an edge that lands on no
// port or on a port another edge feeds, so no delivery can be unexpected
// or arrive twice.
func TestDemuxRoutesDropsAndFailsWithoutBlocking(t *testing.T) {
	d := newSlotRig(t)
	values := []tasklib.Value{"zero", 1.5, []float64{1, 2}, "three"}
	for port, v := range values {
		got := d.deliverTo(port, v)
		if f, ok := v.([]float64); ok {
			if g, ok := got.([]float64); !ok || len(g) != len(f) || g[1] != f[1] {
				t.Fatalf("port %d = %v, want %v", port, got, v)
			}
		} else if got != v {
			t.Fatalf("port %d = %v, want %v", port, got, v)
		}
	}
	for port := len(values); port < rigConsumer; port++ {
		if d.ready(port) {
			t.Fatalf("port %d filled with nothing sent to it", port)
		}
	}
	if slot := d.ri.slot(rigUnfed, 0); slot < 0 || len(d.ri.shape.InEdges(rigUnfed)) > 0 {
		t.Fatal("a port no edge feeds has a slot to fill")
	}
	for _, addr := range [][2]int{{rigConsumer, rigConsumer}, {rigConsumer, -1}, {0, 0}} {
		if d.ri.slot(afg.TaskID(addr[0]), addr[1]) >= 0 {
			t.Fatalf("slot(%d, %d) exists", addr[0], addr[1])
		}
	}
	tb, err := testbed.Build(testbed.Config{Sites: 1, HostsPerGroup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Reg: tasklib.Default(), TB: tb}
	for toPorts, want := range map[[2]int]string{{1, 1}: "invalid port", {0, 0}: "multiply connected"} { // no such port; one port twice
		g := afg.NewGraph("misfit")
		c := g.AddTask("Pass_Through", "util", 1, 1)
		for _, port := range toPorts {
			src := g.AddTask("Vector_Generate", "matrix", 0, 1)
			g.Edges = append(g.Edges, afg.Edge{From: src, To: c, ToPort: port})
		}
		// The graph is refused before its table is looked at.
		if _, err := e.Execute(context.Background(), g, &core.AllocationTable{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("edges onto ports %v: err = %v", toPorts, err)
		}
	}
}

// TestReaderReleasesABulkFrameBuffer hands a slot one frame above
// maxIdleFrameBuf and another slot a small one: the slot holds its own
// copy of the bulk value, so the frame buffer (which send does not keep
// at that size) can be overwritten the moment receive returns, and both
// values still arrive intact.
func TestReaderReleasesABulkFrameBuffer(t *testing.T) {
	d := newSlotRig(t)
	bulk := make([]float64, maxIdleFrameBuf/8+1000)
	for i := range bulk {
		bulk[i] = float64(i)
	}
	f := rawFrame(t, bulk)
	if err := d.receive(0, f); err != nil {
		t.Fatal(err)
	}
	clear(f)
	got, ok := d.ri.vals[d.ri.slot(rigConsumer, 0)].([]float64)
	if !ok || len(got) != len(bulk) || got[1] != 1 || got[len(got)-1] != bulk[len(bulk)-1] {
		t.Fatalf("bulk value arrived as %T of %d elements", got, len(got))
	}
	if got := d.deliverTo(1, "small"); got != "small" {
		t.Fatalf("frame after the bulk one = %v", got)
	}
}

// TestFanOutDecodesAConsumersOwnCopy feeds one out-port to two
// consumers, the first of which overwrites its input vector in place:
// the port is framed once, but each edge decodes its own copy, so the
// second consumer and the producer's result still hold the vector as
// produced, and the tallies count a frame per edge.
func TestFanOutDecodesAConsumersOwnCopy(t *testing.T) {
	r := newRig(t, 3)
	err := r.engine.Reg.Register(tasklib.Spec{Name: "Scribble", Library: "test", InPorts: 1, OutPorts: 1,
		Fn: func(c *tasklib.Context) ([]tasklib.Value, error) {
			v := c.In[0].([]float64)
			for i := range v {
				v[i] = -1
			}
			return []tasklib.Value{v}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	g := afg.NewGraph("fanout")
	src := g.AddTask("Vector_Generate", "matrix", 0, 1)
	scribble := g.AddTask("Scribble", "test", 1, 1)
	pass := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.SetProps(src, afg.Properties{Args: map[string]string{"n": "8", "seed": "1"}}); err != nil {
		t.Fatal(err)
	}
	for _, to := range []afg.TaskID{scribble, pass} {
		if err := g.Connect(src, 0, to, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.engine.Execute(context.Background(), g, onePerHost(r, g))
	if err != nil {
		t.Fatal(err)
	}
	produced := res.Outputs[src][0].([]float64)
	passed := res.Outputs[pass][0].([]float64)
	scribbled := res.Outputs[scribble][0].([]float64)
	if !slices.Equal(passed, produced) || slices.Contains(produced, -1) {
		t.Fatalf("produced %v, the second consumer got %v", produced, passed)
	}
	if scribbled[0] != -1 || &scribbled[0] == &passed[0] {
		t.Fatalf("the consumers share one decoded value: %v", scribbled)
	}
	val, err := tasklib.EncodeValue(produced)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.engine.TransferStats(); st != (TransferStats{Frames: 2, Bytes: 2 * int64(len(val))}) {
		t.Fatalf("transfer tallies %+v, want a frame of %d bytes per edge", st, len(val))
	}
}

// TestIdleHostsPinNoFrameBuffer runs a 160x160 linear solver with its
// tasks spread over eight hosts, five of which send, and then checks
// what the idle hosts keep: frame buffers go back to one pool,
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
	run(8) // fills the frame pool
	before := heap()
	run(160)
	delta := heap() - before
	t.Logf("heap after an LES-160 run on idle hosts: %+d bytes", delta)
	if delta >= 512<<10 {
		t.Fatalf("idle hosts keep %d bytes after the run, budget %d", delta, 512<<10)
	}
}

// TestFramingFaultTearsTheStreamDown hands a slot frames that fail
// their checks. What is torn down is the one frame's delivery, not a
// connection: each is refused with an error for the sender and leaves
// the slot unready, and the next sound frame still lands in it.
func TestFramingFaultTearsTheStreamDown(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame func() []byte
	}{
		{"checksum", func() []byte {
			f := rawFrame(t, "late")
			f[len(f)-1] ^= 1
			return f
		}},
		{"oversized", func() []byte {
			// Only the header: the length alone must condemn it.
			f := make([]byte, frame.HeaderSize)
			binary.LittleEndian.PutUint32(f[0:4], frame.MaxPayload+1)
			return f
		}},
		{"truncated", func() []byte {
			f := rawFrame(t, "late")
			return f[:len(f)-3]
		}},
		{"undecodable value", func() []byte {
			return frame.Append(nil, []byte{0xEE, 1}) // sound frame, unknown type tag
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newSlotRig(t)
			if err := d.receive(7, tc.frame()); err == nil {
				t.Fatal("the slot accepted a frame that fails its checks")
			}
			if d.ready(7) {
				t.Fatal("a frame that failed its checks filled the slot")
			}
			if got := d.deliverTo(7, "after"); got != "after" {
				t.Fatalf("frame after the fault = %v", got)
			}
		})
	}
}

// registerHold adds a "Hold" task to the rig's catalog: a source that
// produces nothing until the test ends, so whatever consumes it is never
// started, without a Spin burning a core in the background.
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

// TestParkedConsumerReleasedBySiblingFailure: a consumer whose producer
// holds its output is never fired, so a sibling's failure ends the run
// as soon as the started controllers have left — there is no listener to
// close, and no controller parked on its input slots.
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
		t.Fatalf("Execute took %v with a consumer waiting for its inputs", d)
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
	if st := r.engine.TransferStats(); st != (TransferStats{}) {
		t.Fatalf("a graph without edges moved data: %+v", st)
	}
}

// TestConnectionsScaleWithHostsNotJobs runs many applications through
// one engine and checks what is left behind: every frame counted, and
// not one goroutine more than before the first run — the data plane
// starts none.
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
	if want := int64(jobs * len(g.Edges)); st.Frames != want {
		t.Fatalf("frames = %d, want %d", st.Frames, want)
	}
	// A controller that has signalled its run may not have returned yet.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %d jobs: %d goroutines, %d before the first", jobs, runtime.NumGoroutine(), before)
		}
	}
}

// TestCloseReleasesEverythingAndFailsRuns: Close refuses every later
// Execute, edges or none. A run already in flight owns its Data
// Manager, so Close does not touch it and it finishes.
func TestCloseReleasesEverythingAndFailsRuns(t *testing.T) {
	r := newRig(t, 2)
	g, table := chain(t, r, "Spin", map[string]string{"ms": "30"})
	errCh := make(chan error, 1)
	go func() {
		_, err := r.engine.Execute(context.Background(), g, table)
		errCh <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); r.engine.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the run never started")
		}
	}
	r.engine.Close()
	r.engine.Close() // idempotent
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("a run in flight at Close ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a run unfinished")
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
// layer on the ledger's c3i-stream graph shape (six tasks, five edges),
// on its les-bulk shape at n=16 (six tasks, seven edges), and on
// its ctl-churn shape (one task, no edges: the per-run share alone). The
// per-task listener, per-edge dial and per-message gob path cost 2,508
// for the first; per-attempt tickers and a run carried in maps and heap
// copies cost 254 and 38; the state block measures 191 and 26. The C3I
// tasks building their results in place, and a decoded track list's
// strings sharing one block, take the first from 190 to 102; handing
// each frame to the Data Manager by call, with no stream between them,
// to 97; and filling the consumer's slot straight from the run's edge
// index, with no engine-wide endpoint, to 96. Starting a task when its
// last input lands, with no goroutine parked on a channel per in-edge
// and no input slice per task, takes C3I to 84 and LES-16 from 108 to 94.
// Running each task function on its controller's goroutine, with no
// compute goroutine, outcome channel or Context per attempt, takes them
// to 59 and 69 and the solo run from 25 to 20. A run that derives no
// context from the caller's and a monitoring loop on a pooled timer, with
// its kick channel in place of the done channel, take them to 54, 64 and
// 15. The dilated C3I run waits out every modeled transfer and stretched
// attempt on the monitoring loop's one timer: its budget is the
// undilated run's count plus one wait channel per controller, which a
// timer or a channel per wait would break. The port numbering and the
// out-edge index taken from the graph's kept analysis, the Data Manager
// in the run's state block and the table check's positions on the stack
// take them to 50, 60 and 14, and the budgets down by 4, 4 and 1.
func TestExecuteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := newRig(t, 8)
	c3i, err := tasklib.BuildC3IPipeline(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	les, err := tasklib.BuildLinearEquationSolver(16, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range les.Tasks {
		task.Props.MachineType = "" // random testbed arch mix
	}
	solo := afg.NewGraph("solo")
	id := solo.AddTask("Vector_Generate", "matrix", 0, 1)
	if err := solo.SetProps(id, afg.Properties{Args: map[string]string{"n": "8", "seed": "1"}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measured := make(map[*afg.Graph]float64)
	for _, tc := range []struct {
		g        *afg.Graph
		dilation float64
		budget   float64
	}{{c3i, 0, 53}, {les, 0, 63}, {solo, 0, 15}, {c3i, 1, 0}} {
		budget := tc.budget
		if tc.dilation > 0 {
			budget += measured[tc.g] + float64(len(tc.g.Tasks))
		}
		r.engine.DilationScale = tc.dilation
		table := r.schedule(t, tc.g)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := r.engine.Execute(ctx, tc.g, table); err != nil {
				t.Fatal(err)
			}
		})
		measured[tc.g] = allocs
		t.Logf("Execute(%s, %d tasks, %d edges, DilationScale %g): %.0f allocs/run",
			tc.g.Name, len(tc.g.Tasks), len(tc.g.Edges), tc.dilation, allocs)
		if allocs > budget {
			t.Fatalf("Execute(%s, DilationScale %g) allocates %.0f objects per run, budget %.0f",
				tc.g.Name, tc.dilation, allocs, budget)
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
		e := &Engine{Reg: tasklib.Default(), TB: tb, DilationScale: scale, Health: detect.New(detect.Config{})}
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
