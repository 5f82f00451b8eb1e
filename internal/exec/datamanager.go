package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/afg"
	"vdce/internal/frame"
	"vdce/internal/tasklib"
)

// ErrEngineClosed is returned by Execute after Close.
var ErrEngineClosed = errors.New("exec: engine closed")

// TransferStats is a snapshot of the engine's Data Manager tallies.
type TransferStats struct {
	// Frames and Bytes count edge deliveries that landed in their slot
	// and the encoded value bytes they carried.
	Frames, Bytes int64
}

// transferTallies are the counters behind TransferStats.
type transferTallies struct {
	frames, bytes atomic.Int64
}

// TransferStats reports the Data Manager tallies.
func (e *Engine) TransferStats() TransferStats {
	t := &e.transfer
	return TransferStats{Frames: t.frames.Load(), Bytes: t.bytes.Load()}
}

// Close makes every later Execute fail with ErrEngineClosed. Runs in
// flight finish: each owns its Data Manager. Close is idempotent.
func (e *Engine) Close() {
	e.closed.Store(true)
}

// runInputs is one run's Data Manager: a slot per input port of every
// task, of which those with an in-edge expect a delivery, and the
// sending side's index: outEdges is the run's edges grouped by source
// task, outEdges[outBase[t]:outBase[t+1]] leaving t. Every host lives
// in this process, so a producer hands each frame to its consumer's
// slot by call (send, receive): the bytes are framed and checked as on
// a wire, and what the network costs comes from the testbed's model
// (receiveInputs), not from a transport that models no link.
type runInputs struct {
	base     []int    // base[t] is the index in slots of task t's port 0
	slots    []inSlot // len(slots) == base[len(tasks)]
	outBase  []int
	outEdges []afg.Edge
}

// inSlot is the receiving end of one edge: a one-value buffer its
// producer fills and the consuming task's controller waits on.
type inSlot struct {
	ready chan struct{} // closed once val is set; nil if no edge feeds the port
	val   tasklib.Value
	from  afg.TaskID // the producing task
	// at and bytes are the delivery's instant and the value's encoded
	// size, from which the network model prices the transfer.
	at    time.Time
	bytes int
}

// newRunInputs lays out the slots and the out-edge index for g's edges,
// which must join tasks of g (AllocationTable.Validate checks).
// An edge that lands on no port, or on a port another edge feeds, is
// refused here, so each slot has one producer and is filled once.
func newRunInputs(g *afg.Graph) (*runInputs, error) {
	n := len(g.Tasks)
	idx := make([]int, 2*n+3)
	ri := &runInputs{base: idx[:n+1], outEdges: make([]afg.Edge, len(g.Edges))}
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

// send delivers outs along edges (all leaving one task): each out-port
// is encoded once into a pooled frame buffer and sealed, and every edge
// that fans out from it hands the frame to its consumer's slot.
func (ri *runInputs) send(t *transferTallies, edges []afg.Edge, outs []tasklib.Value) error {
	p := framePool.Get().(*[]byte)
	defer putFrameBuf(p)
	for i, e := range edges {
		if sentEarlier(edges[:i], e.FromPort) {
			continue
		}
		if e.FromPort < 0 || e.FromPort >= len(outs) {
			return fmt.Errorf("exec: task %d produced no output for port %d", e.From, e.FromPort)
		}
		buf, err := tasklib.AppendValue(append((*p)[:0], make([]byte, frame.HeaderSize)...), outs[e.FromPort])
		*p = buf
		if err != nil {
			return err
		}
		frame.Seal(buf)
		for _, f := range edges[i:] {
			if f.FromPort != e.FromPort {
				continue
			}
			if err := ri.slot(int(f.To), f.ToPort).receive(buf); err != nil {
				return fmt.Errorf("exec: send to child %d: %w", f.To, err)
			}
			t.frames.Add(1)
			t.bytes.Add(int64(len(buf) - frame.HeaderSize))
		}
	}
	return nil
}

// receive checks one frame — its length and its checksum — and decodes
// its value into the slot: the consumer's own copy, so the frame buffer
// can be reused as soon as receive returns. A frame or value that does
// not check fills nothing.
func (s *inSlot) receive(f []byte) error {
	payload, _, err := frame.Decode(f)
	if err != nil {
		return err
	}
	val, err := tasklib.DecodeValue(payload)
	if err != nil {
		return err
	}
	s.val, s.at, s.bytes = val, time.Now(), len(payload)
	close(s.ready)
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
// It gives up only when the run is canceled, by the caller or by a
// failing sibling.
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
	return ri.send(&ac.app.engine.transfer, edges, outs)
}
