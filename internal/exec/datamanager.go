package exec

import (
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

// runInputs is one run's Data Manager: a slot and a value per input port
// of every task, of which those with an in-edge expect a delivery, and
// the sending side's index: outEdges is the run's edges grouped by
// source task, outEdges[outBase[t]:outBase[t+1]] leaving t. Every host
// lives in this process, so a producer hands each frame to its consumer's
// slot by call (send, receive): the bytes are framed and checked as on a
// wire, and what the network costs comes from the testbed's model
// (receiveInputs), not from a transport that models no link.
type runInputs struct {
	base     []int           // base[t] is the index in slots of task t's port 0
	slots    []inSlot        // len(slots) == base[len(tasks)]
	vals     []tasklib.Value // vals[i] is the value slots[i] received
	outBase  []int
	outEdges []afg.Edge
}

// inSlot is the receiving end of one edge, filled once by its producer
// before the consuming task's controller starts.
type inSlot struct {
	fed  bool       // an edge feeds the port
	from afg.TaskID // the producing task
	// at (zero until filled) and bytes are the delivery's instant and the
	// value's encoded size, from which the network model prices it.
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
	ri.vals = make([]tasklib.Value, ri.base[n])
	// The out-edge index is a counting sort by source task, counted two
	// slots to the right so that placing the edges leaves each task's
	// start in its own slot.
	start := idx[n+1:]
	for _, e := range g.Edges {
		i := ri.slot(int(e.To), e.ToPort)
		if i < 0 || ri.slots[i].fed {
			return nil, fmt.Errorf("exec: edge %d:%d -> %d:%d has no free input port to land on",
				e.From, e.FromPort, e.To, e.ToPort)
		}
		ri.slots[i].fed, ri.slots[i].from = true, e.From
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

// slot returns the index of (task, port) in slots and vals, or -1 if the
// task has no such port.
func (ri *runInputs) slot(task, port int) int {
	if task < 0 || task >= len(ri.base)-1 || port < 0 || port >= ri.base[task+1]-ri.base[task] {
		return -1
	}
	return ri.base[task] + port
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
			if err := ri.receive(ri.slot(int(f.To), f.ToPort), buf); err != nil {
				return fmt.Errorf("exec: send to child %d: %w", f.To, err)
			}
			t.frames.Add(1)
			t.bytes.Add(int64(len(buf) - frame.HeaderSize))
		}
	}
	return nil
}

// receive checks one frame — its length and its checksum — and decodes
// its value into slot i: the consumer's own copy, so the frame buffer can
// be reused as soon as receive returns. A frame or value that does not
// check fills nothing.
func (ri *runInputs) receive(i int, f []byte) error {
	payload, _, err := frame.Decode(f)
	if err != nil {
		return err
	}
	val, err := tasklib.DecodeValue(payload)
	if err != nil {
		return err
	}
	ri.vals[i] = val
	ri.slots[i].at, ri.slots[i].bytes = time.Now(), len(payload)
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

// receiveInputs returns the task's delivered inputs by port, nil where no
// edge feeds one. With DilationScale > 0 it also returns when they
// arrive: each at its delivery plus the network's transfer time for its
// bytes from the site of its producer's host to this task's, scaled
// alike. The producer wrote its placement for the last time before it
// delivered, so reading it needs no lock.
func (ac *appController) receiveInputs() (in []tasklib.Value, arrived time.Time, err error) {
	ri, tb := ac.app.inputs, ac.app.engine.TB
	if ri == nil {
		return make([]tasklib.Value, ac.task.InPorts), arrived, nil
	}
	lo, hi := ri.base[ac.task.ID], ri.base[ac.task.ID+1]
	if scale := ac.app.engine.DilationScale; scale > 0 {
		to, err := tb.Host(ac.place.Hosts[0])
		if err != nil {
			return nil, arrived, err
		}
		for i := lo; i < hi; i++ {
			s := &ri.slots[i]
			if !s.fed {
				continue
			}
			from, err := tb.Host(ac.app.ctl[s.from].place.Hosts[0])
			if err != nil {
				return nil, arrived, err
			}
			d, err := tb.Net.TransferTime(int64(s.bytes), from.Site, to.Site)
			if err != nil {
				return nil, arrived, err
			}
			if at := s.at.Add(time.Duration(float64(d) * scale)); at.After(arrived) {
				arrived = at
			}
		}
	}
	return ri.vals[lo:hi:hi], arrived, nil
}

// sendOutputs keeps the produced values for the result, delivers them to
// the task's children and, unless the run has ended, fires each child
// whose last input this was: the first is returned to run next, every
// other starts beside it.
func (ac *appController) sendOutputs(outs []tasklib.Value) (*appController, error) {
	r, ri := ac.app, ac.app.inputs
	if len(outs) != ac.task.OutPorts {
		return nil, fmt.Errorf("exec: produced %d outputs, declared %d", len(outs), ac.task.OutPorts)
	}
	r.mu.Lock()
	r.outputs[ac.task.ID] = outs
	r.mu.Unlock()
	if ri == nil {
		return nil, nil // a graph without edges has no Data Manager
	}
	edges := ri.outEdges[ri.outBase[ac.task.ID]:ri.outBase[ac.task.ID+1]]
	if err := ri.send(&r.engine.transfer, edges, outs); err != nil || r.ended() != nil {
		return nil, err
	}
	var next *appController
	for _, e := range edges {
		if c := r.release(e.To); c != nil && next == nil {
			next = c
		} else if c != nil {
			go c.main()
		}
	}
	return next, nil
}
