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
// of every task, numbered as the graph's Shape numbers them; the shape's
// in-edges say which slots expect a delivery, and its out-edges are the
// sending side's index. Every host lives in this process, so a producer
// hands each frame to its consumer's slot by call (send, receive): the
// bytes are framed and checked as on a wire, and what the network costs
// comes from the testbed's model (receiveInputs), not from a transport
// that models no link.
type runInputs struct {
	shape *afg.Shape
	slots []inSlot        // one per input port of the graph
	vals  []tasklib.Value // vals[i] is the value slots[i] received
}

// inSlot is the receiving end of one edge, filled once by its producer
// before the consuming task's controller starts: the shape holds each
// edge to a port of its own. at (zero until filled) and bytes are the
// delivery's instant and the value's encoded size, from which the
// network model prices it.
type inSlot struct {
	at    time.Time
	bytes int
}

// newRunInputs lays out the slots over a graph's shape.
func newRunInputs(shape *afg.Shape) runInputs {
	n := shape.NumInputPorts()
	return runInputs{shape: shape, slots: make([]inSlot, n), vals: make([]tasklib.Value, n)}
}

// slot returns the index of (task, port) in slots and vals, or -1 if the
// task, one of the graph's, has no such port.
func (ri *runInputs) slot(task afg.TaskID, port int) int {
	lo, hi := ri.shape.InputPorts(task)
	if port < 0 || port >= hi-lo {
		return -1
	}
	return lo + port
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

// send delivers outs along the edges out of one task, edges[i] for i in
// leaving: each out-port is encoded once into a pooled frame buffer and
// sealed, and every edge that fans out from it hands the frame to its
// consumer's slot.
func (ri *runInputs) send(t *transferTallies, edges []afg.Edge, leaving []int, outs []tasklib.Value) error {
	p := framePool.Get().(*[]byte)
	defer putFrameBuf(p)
	for i, ei := range leaving {
		e := edges[ei]
		if sentEarlier(edges, leaving[:i], e.FromPort) {
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
		for _, fi := range leaving[i:] {
			f := edges[fi]
			if f.FromPort != e.FromPort {
				continue
			}
			if err := ri.receive(ri.slot(f.To, f.ToPort), buf); err != nil {
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

func sentEarlier(edges []afg.Edge, leaving []int, port int) bool {
	for _, i := range leaving {
		if edges[i].FromPort == port {
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
	ri, tb := &ac.app.inputs, ac.app.engine.TB
	lo, hi := ri.shape.InputPorts(ac.task.ID)
	if scale := ac.app.engine.DilationScale; scale > 0 {
		to, err := tb.Host(ac.place.Hosts[0])
		if err != nil {
			return nil, arrived, err
		}
		for _, k := range ri.shape.InEdges(ac.task.ID) {
			e := &ac.app.g.Edges[k]
			s := &ri.slots[lo+e.ToPort]
			from, err := tb.Host(ac.app.ctl[e.From].place.Hosts[0])
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
	r, ri := ac.app, &ac.app.inputs
	if len(outs) != ac.task.OutPorts {
		return nil, fmt.Errorf("exec: produced %d outputs, declared %d", len(outs), ac.task.OutPorts)
	}
	r.mu.Lock()
	r.outputs[ac.task.ID] = outs
	r.mu.Unlock()
	leaving := ri.shape.OutEdges(ac.task.ID)
	if len(leaving) == 0 {
		return nil, nil
	}
	if err := ri.send(&r.engine.transfer, r.g.Edges, leaving, outs); err != nil || r.ended() != nil {
		return nil, err
	}
	var next *appController
	for _, i := range leaving {
		if c := r.release(r.g.Edges[i].To); c != nil && next == nil {
			next = c
		} else if c != nil {
			go c.main()
		}
	}
	return next, nil
}
