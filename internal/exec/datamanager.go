package exec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
	// Frames and Bytes count edge deliveries written to a stream and the
	// encoded value bytes they carried.
	Frames, Bytes int64
	// Dropped counts frames that arrived for a run no longer (or never)
	// registered: deliveries in flight when their run was aborted.
	Dropped int64
	// Redials counts streams re-established after a failed write.
	Redials int64
	// Listening, Streams and Readers describe what the endpoint holds
	// right now: its listener, the per-source-host connections dialed
	// to it, and the goroutines reading the accepted ends. All are zero
	// before the first run with dataflow edges and after Close.
	Listening        bool
	Streams, Readers int
}

// transferTallies are the counters behind TransferStats. They live in
// the Engine, not the endpoint, so they survive Close.
type transferTallies struct {
	frames, bytes, dropped, redials atomic.Int64
	listening                       atomic.Bool
	streams, readers                atomic.Int32
}

// TransferStats reports the Data Manager tallies.
func (e *Engine) TransferStats() TransferStats {
	t := &e.transfer
	return TransferStats{
		Frames: t.frames.Load(), Bytes: t.bytes.Load(),
		Dropped: t.dropped.Load(), Redials: t.redials.Load(),
		Listening: t.listening.Load(),
		Streams:   int(t.streams.Load()), Readers: int(t.readers.Load()),
	}
}

// endpoint is the engine's Data Manager: one loopback listener every
// run's deliveries arrive at, one persistent stream per source host
// dialed to it, and the demux table that routes an arriving frame to
// the input slot of the run and task it is addressed to.
type endpoint struct {
	tallies *transferTallies
	ln      net.Listener
	wg      sync.WaitGroup // the accept loop and every reader

	mu      sync.Mutex
	closed  bool
	runs    map[uint64]*runInputs // the demux table, by run sequence
	streams map[string]*stream    // by source host
	conns   map[net.Conn]struct{} // accepted ends, for close
}

// dataManager returns the engine's endpoint, opening it on first use.
func (e *Engine) dataManager() (*endpoint, error) {
	e.dmMu.Lock()
	defer e.dmMu.Unlock()
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if e.dm == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("exec: data manager listen: %w", err)
		}
		ep := &endpoint{
			tallies: &e.transfer,
			ln:      ln,
			runs:    make(map[uint64]*runInputs),
			streams: make(map[string]*stream),
			conns:   make(map[net.Conn]struct{}),
		}
		e.transfer.listening.Store(true)
		ep.wg.Add(1)
		go ep.accept()
		e.dm = ep
	}
	return e.dm, nil
}

// Close releases the Data Manager endpoint: the listener, every stream
// and every reader goroutine are gone when it returns. Runs still in
// flight fail with ErrEngineClosed, and so does every later Execute.
// Close is idempotent.
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
	runs, streams, conns := ep.runs, ep.streams, ep.conns
	ep.runs, ep.streams, ep.conns = nil, nil, nil
	ep.mu.Unlock()
	// Runs fail first, so that ErrEngineClosed and not a sender's broken
	// pipe is the error they report. With the listener gone no stream can
	// redial once its connection is dropped.
	for _, ri := range runs {
		ri.fail(ErrEngineClosed)
	}
	ep.ln.Close()
	for _, s := range streams {
		s.mu.Lock()
		s.drop()
		s.mu.Unlock()
	}
	for c := range conns {
		c.Close()
	}
	ep.wg.Wait()
	ep.tallies.listening.Store(false)
}

func (ep *endpoint) accept() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			// Out of descriptors, most likely: streams dialed meanwhile
			// wait in the backlog until one frees up.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.conns[conn] = struct{}{}
		ep.wg.Add(1)
		ep.mu.Unlock()
		go ep.read(conn)
	}
}

// read is the receiving end of one stream. Any framing fault — a frame
// cut short, a length beyond frame.MaxPayload or too small to hold a
// routing header, a checksum mismatch — tears the stream down: past it
// no frame boundary can be trusted. The sender's next write fails and
// redials.
func (ep *endpoint) read(conn net.Conn) {
	ep.tallies.readers.Add(1)
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.conns, conn)
		ep.mu.Unlock()
		ep.tallies.readers.Add(-1)
		ep.wg.Done()
	}()
	br := bufio.NewReader(conn) // a payload larger than its buffer bypasses it
	for {
		var hdr [frame.HeaderSize]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := frame.PayloadLen(hdr[:])
		if n > frame.MaxPayload || n <= routeHeader || !ep.readFrame(br, hdr, n) {
			return
		}
	}
}

// readFrame reads the rest of a frame whose header is hdr into a pooled
// buffer, checks it and delivers it, and reports whether the stream can
// go on. deliver copies the value out, so the buffer goes back to the
// pool before the next frame.
func (ep *endpoint) readFrame(br *bufio.Reader, hdr [frame.HeaderSize]byte, n int) bool {
	p := framePool.Get().(*[]byte)
	defer putFrameBuf(p)
	if cap(*p) < frame.HeaderSize+n {
		*p = make([]byte, frame.HeaderSize+n)
	}
	f := (*p)[:frame.HeaderSize+n]
	copy(f, hdr[:])
	if _, err := io.ReadFull(br, f[frame.HeaderSize:]); err != nil {
		return false
	}
	payload, _, err := frame.Decode(f)
	if err != nil {
		return false
	}
	ep.deliver(payload)
	return true
}

// deliver routes one checked payload to its input slot. It never
// blocks: a slot is filled at most once, and a second delivery to it
// fails the run instead of waiting for room.
func (ep *endpoint) deliver(payload []byte) {
	seq := binary.LittleEndian.Uint64(payload[0:8])
	task := int(binary.LittleEndian.Uint32(payload[8:12]))
	port := int(binary.LittleEndian.Uint32(payload[12:16]))
	ep.mu.Lock()
	ri := ep.runs[seq]
	ep.mu.Unlock()
	if ri == nil {
		ep.tallies.dropped.Add(1)
		return
	}
	slot := ri.slot(task, port)
	if slot == nil || slot.ready == nil {
		ri.fail(fmt.Errorf("exec: task %d got unexpected port %d", task, port))
		return
	}
	if !slot.filled.CompareAndSwap(false, true) {
		ri.fail(fmt.Errorf("exec: task %d got port %d twice", task, port))
		return
	}
	val, err := tasklib.DecodeValue(payload[routeHeader:])
	if err != nil {
		ri.fail(fmt.Errorf("exec: task %d payload: %w", task, err))
		return
	}
	slot.val = val
	close(slot.ready)
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

// streamFor returns the source host's stream, creating it (undialed) on
// first use; nil once the endpoint is closed.
func (ep *endpoint) streamFor(host string) *stream {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil
	}
	s := ep.streams[host]
	if s == nil {
		s = &stream{ep: ep}
		ep.streams[host] = s
	}
	return s
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
// reader fills and the consuming task's controller waits on.
type inSlot struct {
	ready  chan struct{} // closed once val is set; nil if no edge feeds the port
	filled atomic.Bool   // claimed by the first delivery
	val    tasklib.Value
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

// stream is one source host's persistent connection to the endpoint.
// Tasks on a host run one at a time but deliver after releasing the
// host, so writes are serialized by mu. A stream keeps no frame buffer:
// each send takes one from framePool and returns it.
type stream struct {
	ep *endpoint

	mu   sync.Mutex
	conn net.Conn // nil until the first send and after a failed write
}

// framePool holds the frame buffers of sends and of frames being read,
// shared by every stream and reader, so a host or reader that goes idle
// holds none.
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
// that fans out from it.
func (s *stream) send(seq uint64, edges []afg.Edge, outs []tasklib.Value) error {
	p := framePool.Get().(*[]byte)
	defer putFrameBuf(p)
	s.mu.Lock()
	defer s.mu.Unlock()
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
			if err := s.write(buf); err != nil {
				return fmt.Errorf("exec: send to child %d: %w", f.To, err)
			}
			s.ep.tallies.frames.Add(1)
			s.ep.tallies.bytes.Add(int64(len(payload) - routeHeader))
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

// write puts one frame on the wire, dialing if the stream is down. A
// failed write closes the connection and is retried once on a fresh
// one; the second failure is the caller's error.
func (s *stream) write(buf []byte) error {
	for attempt := 0; ; attempt++ {
		if s.conn == nil {
			conn, err := net.Dial("tcp", s.ep.ln.Addr().String())
			if err != nil {
				return err
			}
			s.conn = conn
			s.ep.tallies.streams.Add(1)
		}
		_, err := s.conn.Write(buf)
		if err == nil {
			return nil
		}
		s.drop()
		if attempt == 1 {
			return err
		}
		s.ep.tallies.redials.Add(1)
	}
}

// drop closes the connection, if any. The caller holds mu.
func (s *stream) drop() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.ep.tallies.streams.Add(-1)
	}
}

// receiveInputs waits for the task's dataflow inputs and returns them
// indexed by input port; ports no edge feeds stay nil. It gives up only
// when the run is canceled — by the caller, by a failing sibling, or by
// the endpoint rejecting a delivery addressed to this run.
func (ac *appController) receiveInputs(ctx context.Context) ([]tasklib.Value, error) {
	in := make([]tasklib.Value, ac.task.InPorts)
	ri := ac.app.inputs
	if ri == nil {
		return in, nil
	}
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
	}
	return in, nil
}

// sendOutputs delivers the produced values to the task's children over
// the stream of the host the task ran on.
func (ac *appController) sendOutputs(outs []tasklib.Value) error {
	ri := ac.app.inputs
	if ri == nil {
		return nil // a graph without edges has no Data Manager
	}
	edges := ri.outEdges[ri.outBase[ac.task.ID]:ri.outBase[ac.task.ID+1]]
	if len(edges) == 0 {
		return nil
	}
	s := ac.app.dm.streamFor(ac.place.Hosts[0])
	if s == nil {
		return ErrEngineClosed
	}
	return s.send(ri.seq, edges, outs)
}
