package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/frame"
	"vdce/internal/tasklib"
)

// Every edge delivery is one internal/frame frame (the WAL's record
// layout). The payload is a routing header (run sequence, to-task,
// to-port) followed by the value in tasklib's wire form, whose first
// byte is the type tag.
const routeHeader = 16 // run uint64, to-task uint32, to-port uint32

// ErrEngineClosed is returned by Execute after Close, and fails every
// run that is in flight when Close is called.
var ErrEngineClosed = errors.New("exec: engine closed")

// TransferStats is a snapshot of the engine's Data Manager tallies.
type TransferStats struct {
	// Frames and Bytes count edge deliveries the endpoint accepted and
	// the encoded value bytes they carried.
	Frames, Bytes int64
	// Dropped counts frames that arrived for a run no longer (or never)
	// registered: deliveries in flight when their run was aborted.
	Dropped int64
}

// transferTallies are the counters behind TransferStats. They live in
// the Engine, not the endpoint, so they survive Close.
type transferTallies struct {
	frames, bytes, dropped atomic.Int64
}

// TransferStats reports the Data Manager tallies.
func (e *Engine) TransferStats() TransferStats {
	t := &e.transfer
	return TransferStats{Frames: t.frames.Load(), Bytes: t.bytes.Load(), Dropped: t.dropped.Load()}
}

// endpoint is the engine's Data Manager: the one place every run's
// deliveries arrive at, and the demux table that routes an arriving
// frame to the input slot of the run and task it is addressed to.
// Every host lives in this process, so a producer hands each frame to
// the endpoint by call (send, receive): the bytes are framed and
// checked as on a wire, and what the network costs comes from the
// testbed's model (receiveInputs), not from a transport that models no
// link.
type endpoint struct {
	tallies *transferTallies

	mu     sync.Mutex
	closed bool
	runs   map[uint64]*runInputs // the demux table, by run sequence
}

// dataManager returns the engine's endpoint, opening it on first use.
func (e *Engine) dataManager() (*endpoint, error) {
	e.dmMu.Lock()
	defer e.dmMu.Unlock()
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if e.dm == nil {
		e.dm = &endpoint{tallies: &e.transfer, runs: make(map[uint64]*runInputs)}
	}
	return e.dm, nil
}

// Close releases the Data Manager endpoint. Runs still in flight fail
// with ErrEngineClosed, and so does every later Execute and every send
// to the endpoint. Close is idempotent.
func (e *Engine) Close() {
	e.dmMu.Lock()
	ep := e.dm
	e.dm = nil
	e.closed.Store(true)
	e.dmMu.Unlock()
	if ep != nil {
		ep.close()
	}
}

func (ep *endpoint) close() {
	ep.mu.Lock()
	ep.closed = true
	runs := ep.runs
	ep.runs = nil
	ep.mu.Unlock()
	for _, ri := range runs {
		ri.fail(ErrEngineClosed)
	}
}

// receive checks one frame — its length, its checksum, room for a
// routing header — and delivers its payload. A framing fault is the
// sender's error and reaches no slot; so is a closed endpoint.
func (ep *endpoint) receive(f []byte) error {
	payload, _, err := frame.Decode(f)
	if err != nil {
		return err
	}
	if len(payload) <= routeHeader {
		return fmt.Errorf("exec: %d-byte payload holds no routing header and value", len(payload))
	}
	return ep.deliver(payload)
}

// deliver routes one checked payload to its input slot. It never
// blocks: a slot is filled at most once, and a second delivery to it
// fails the run instead of waiting for room. What is wrong with a
// delivery, rather than its frame, fails the run it is addressed to,
// not the sender; the value is decoded into its own copy, so the frame
// buffer can be reused as soon as deliver returns.
func (ep *endpoint) deliver(payload []byte) error {
	seq := binary.LittleEndian.Uint64(payload[0:8])
	task := int(binary.LittleEndian.Uint32(payload[8:12]))
	port := int(binary.LittleEndian.Uint32(payload[12:16]))
	ep.mu.Lock()
	closed, ri := ep.closed, ep.runs[seq]
	ep.mu.Unlock()
	switch {
	case closed:
		return ErrEngineClosed
	case ri == nil:
		ep.tallies.dropped.Add(1)
		return nil
	}
	slot := ri.slot(task, port)
	if slot == nil || slot.ready == nil {
		ri.fail(fmt.Errorf("exec: task %d got unexpected port %d", task, port))
		return nil
	}
	if !slot.filled.CompareAndSwap(false, true) {
		ri.fail(fmt.Errorf("exec: task %d got port %d twice", task, port))
		return nil
	}
	val, err := tasklib.DecodeValue(payload[routeHeader:])
	if err != nil {
		ri.fail(fmt.Errorf("exec: task %d payload: %w", task, err))
		return nil
	}
	slot.val = val
	slot.at, slot.bytes = time.Now(), len(payload)-routeHeader
	close(slot.ready)
	return nil
}

// register enters a run's input slots in the demux table. Doing so for
// the whole run before any task starts is the paper's channel set-up
// and acknowledgment: once the startup signal is given, every channel a
// producer will write to already has its receiving end.
func (ep *endpoint) register(ri *runInputs) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return ErrEngineClosed
	}
	ep.runs[ri.seq] = ri
	return nil
}

func (ep *endpoint) unregister(seq uint64) {
	ep.mu.Lock()
	delete(ep.runs, seq)
	ep.mu.Unlock()
}

// runInputs is one run's entry in the demux table: a slot per input
// port of every task, of which those with an in-edge expect a delivery.
// Beside them sits the sending side's index: outEdges is the run's edges
// grouped by source task, outEdges[outBase[t]:outBase[t+1]] leaving t.
type runInputs struct {
	seq      uint64
	base     []int    // base[t] is the index in slots of task t's port 0
	slots    []inSlot // len(slots) == base[len(tasks)]
	outBase  []int
	outEdges []afg.Edge
	fail     func(error)
}

// inSlot is the receiving end of one edge: a one-value buffer the
// endpoint fills and the consuming task's controller waits on.
type inSlot struct {
	ready  chan struct{} // closed once val is set; nil if no edge feeds the port
	filled atomic.Bool   // claimed by the first delivery
	val    tasklib.Value
	from   afg.TaskID // the producing task
	// at and bytes are the delivery's instant and the value's encoded
	// size, from which the network model prices the transfer.
	at    time.Time
	bytes int
}

// newRunInputs lays out the slots and the out-edge index for g's edges,
// whose endpoints must be tasks of g (AllocationTable.Validate checks).
func newRunInputs(seq uint64, g *afg.Graph, fail func(error)) (*runInputs, error) {
	n := len(g.Tasks)
	idx := make([]int, 2*n+3)
	ri := &runInputs{seq: seq, base: idx[:n+1], outEdges: make([]afg.Edge, len(g.Edges)), fail: fail}
	for i, t := range g.Tasks {
		ri.base[i+1] = ri.base[i] + t.InPorts
	}
	ri.slots = make([]inSlot, ri.base[n])
	// The out-edge index is a counting sort by source task, counted two
	// slots to the right so that placing the edges leaves each task's
	// start in its own slot.
	start := idx[n+1:]
	for _, e := range g.Edges {
		slot := ri.slot(int(e.To), e.ToPort)
		if slot == nil || slot.ready != nil {
			return nil, fmt.Errorf("exec: edge %d:%d -> %d:%d has no free input port to land on",
				e.From, e.FromPort, e.To, e.ToPort)
		}
		slot.ready = make(chan struct{})
		slot.from = e.From
		start[e.From+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for _, e := range g.Edges {
		ri.outEdges[start[e.From+1]] = e
		start[e.From+1]++
	}
	ri.outBase = start[:n+1]
	return ri, nil
}

// slot returns the slot of (task, port), or nil if the task has no such
// port. A slot no edge feeds has a nil ready channel.
func (ri *runInputs) slot(task, port int) *inSlot {
	if task < 0 || task >= len(ri.base)-1 || port < 0 || port >= ri.base[task+1]-ri.base[task] {
		return nil
	}
	return &ri.slots[ri.base[task]+port]
}

// framePool holds the frame buffers of sends, shared by every host, so
// a host that goes idle holds none.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxIdleFrameBuf caps the frame buffer framePool keeps, so one bulk
// transfer does not pin its size for good.
const maxIdleFrameBuf = 1 << 20

func putFrameBuf(p *[]byte) {
	if cap(*p) <= maxIdleFrameBuf {
		framePool.Put(p)
	}
}

// send delivers outs along edges (all leaving one task of run seq):
// each out-port is encoded once into a pooled frame buffer, and the
// routing header and checksum are rewritten in place for every edge
// that fans out from it before the endpoint receives the frame.
func (ep *endpoint) send(seq uint64, edges []afg.Edge, outs []tasklib.Value) error {
	p := framePool.Get().(*[]byte)
	defer putFrameBuf(p)
	for i, e := range edges {
		if sentEarlier(edges[:i], e.FromPort) {
			continue
		}
		if e.FromPort < 0 || e.FromPort >= len(outs) {
			return fmt.Errorf("exec: task %d produced no output for port %d", e.From, e.FromPort)
		}
		buf := append((*p)[:0], make([]byte, frame.HeaderSize+routeHeader)...)
		buf, err := tasklib.AppendValue(buf, outs[e.FromPort])
		*p = buf
		if err != nil {
			return err
		}
		payload := buf[frame.HeaderSize:]
		if len(payload) > frame.MaxPayload {
			return fmt.Errorf("exec: task %d port %d: %d-byte value exceeds the %d-byte frame limit",
				e.From, e.FromPort, len(payload)-routeHeader, frame.MaxPayload-routeHeader)
		}
		binary.LittleEndian.PutUint64(payload[0:8], seq)
		for _, f := range edges[i:] {
			if f.FromPort != e.FromPort {
				continue
			}
			binary.LittleEndian.PutUint32(payload[8:12], uint32(f.To))
			binary.LittleEndian.PutUint32(payload[12:16], uint32(f.ToPort))
			frame.Seal(buf)
			if err := ep.receive(buf); err != nil {
				return fmt.Errorf("exec: send to child %d: %w", f.To, err)
			}
			ep.tallies.frames.Add(1)
			ep.tallies.bytes.Add(int64(len(payload) - routeHeader))
		}
	}
	return nil
}

func sentEarlier(edges []afg.Edge, port int) bool {
	for _, e := range edges {
		if e.FromPort == port {
			return true
		}
	}
	return false
}

// receiveInputs waits for the task's dataflow inputs and returns them
// indexed by input port; ports no edge feeds stay nil. When the engine
// emulates the testbed's hardware (DilationScale > 0) it also charges
// the network: an input counts as arrived at its delivery plus the
// testbed network's transfer time between the producer's site and this
// task's, scaled alike, and the task starts at the latest such instant.
// It gives up only when the run is canceled — by the caller, by a
// failing sibling, or by the endpoint rejecting a delivery addressed to
// this run.
func (ac *appController) receiveInputs(ctx context.Context) ([]tasklib.Value, error) {
	in := make([]tasklib.Value, ac.task.InPorts)
	ri := ac.app.inputs
	if ri == nil {
		return in, nil
	}
	e := ac.app.engine
	var arrived time.Time
	slots := ri.slots[ri.base[ac.task.ID]:ri.base[ac.task.ID+1]] // by port
	for port := range slots {
		s := &slots[port]
		if s.ready == nil {
			continue
		}
		select {
		case <-s.ready:
			in[port] = s.val
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.DilationScale > 0 {
			d, err := ac.transferTime(s)
			if err != nil {
				return nil, err
			}
			if at := s.at.Add(time.Duration(float64(d) * e.DilationScale)); at.After(arrived) {
				arrived = at
			}
		}
	}
	if !arrived.IsZero() {
		if err := sleep(ctx, time.Until(arrived)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// transferTime prices a delivered input on the testbed network: its
// bytes from the site of the host its producer ran on to the site of
// this task's host. The producer wrote its placement for the last time
// before it delivered, so reading it here needs no lock.
func (ac *appController) transferTime(s *inSlot) (time.Duration, error) {
	tb := ac.app.engine.TB
	from, err := tb.Host(ac.app.ctl[s.from].place.Hosts[0])
	if err != nil {
		return 0, err
	}
	to, err := tb.Host(ac.place.Hosts[0])
	if err != nil {
		return 0, err
	}
	return tb.Net.TransferTime(int64(s.bytes), from.Site, to.Site)
}

// sendOutputs delivers the produced values to the task's children.
func (ac *appController) sendOutputs(outs []tasklib.Value) error {
	ri := ac.app.inputs
	if ri == nil {
		return nil // a graph without edges has no Data Manager
	}
	edges := ri.outEdges[ri.outBase[ac.task.ID]:ri.outBase[ac.task.ID+1]]
	if len(edges) == 0 {
		return nil
	}
	return ac.app.dm.send(ri.seq, edges, outs)
}
