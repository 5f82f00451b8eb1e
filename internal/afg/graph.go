package afg

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Edge is a dataflow connection from one task's output port to another
// task's input port.
type Edge struct {
	From     TaskID `json:"from"`
	FromPort int    `json:"from_port"`
	To       TaskID `json:"to"`
	ToPort   int    `json:"to_port"`
	// SizeBytes is the expected transfer size on this edge; if zero, the
	// scheduler falls back to the producing task's output FileSpec size or
	// the application input size, as the paper prescribes.
	SizeBytes int64 `json:"size_bytes,omitempty"`
}

// Graph is an application flow graph under construction or ready to
// schedule. Graphs are not safe for concurrent mutation; schedulers treat
// them as immutable once validated. A Graph must not be copied once
// analysed: it keeps its Shape.
type Graph struct {
	Name  string  `json:"name"`
	Owner string  `json:"owner,omitempty"`
	Tasks []*Task `json:"tasks"`
	Edges []Edge  `json:"edges"`
	// InputSizeBytes is the application-level input size the paper says may
	// be used as the transfer-size parameter when edge sizes are unknown.
	InputSizeBytes int64 `json:"input_size_bytes,omitempty"`

	shape atomic.Pointer[Shape] // the last analysis; Shape checks it fits
}

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddTask appends a task with the given name, library, and port counts
// and returns its ID. Properties default to sequential on one node.
func (g *Graph) AddTask(name, library string, inPorts, outPorts int) TaskID {
	id := TaskID(len(g.Tasks))
	g.Tasks = append(g.Tasks, &Task{
		ID:       id,
		Name:     name,
		Library:  library,
		InPorts:  inPorts,
		OutPorts: outPorts,
		Props:    Properties{Mode: Sequential, Nodes: 1},
	})
	return id
}

// Task returns the task with the given ID, or nil if out of range.
func (g *Graph) Task(id TaskID) *Task {
	if id < 0 || int(id) >= len(g.Tasks) {
		return nil
	}
	return g.Tasks[id]
}

// SetProps replaces the properties of task id.
func (g *Graph) SetProps(id TaskID, p Properties) error {
	t := g.Task(id)
	if t == nil {
		return fmt.Errorf("afg: no task %d", id)
	}
	if p.Mode == Sequential {
		p.Nodes = 1
	} else if p.Nodes < 1 {
		p.Nodes = 1
	}
	t.Props = p
	return nil
}

// Connect adds a dataflow edge from (from, fromPort) to (to, toPort) and
// marks the destination input as dataflow. sizeBytes may be zero.
func (g *Graph) Connect(from TaskID, fromPort int, to TaskID, toPort int, sizeBytes int64) error {
	ft, tt := g.Task(from), g.Task(to)
	if ft == nil || tt == nil {
		return fmt.Errorf("afg: Connect references missing task (%d -> %d)", from, to)
	}
	if from == to {
		return fmt.Errorf("afg: self-loop on task %d (%s)", from, ft.Name)
	}
	if fromPort < 0 || fromPort >= ft.OutPorts {
		return fmt.Errorf("afg: task %d (%s) has no output port %d", from, ft.Name, fromPort)
	}
	if toPort < 0 || toPort >= tt.InPorts {
		return fmt.Errorf("afg: task %d (%s) has no input port %d", to, tt.Name, toPort)
	}
	for _, e := range g.Edges {
		if e.To == to && e.ToPort == toPort {
			return fmt.Errorf("afg: input port %d of task %d (%s) already connected", toPort, to, tt.Name)
		}
	}
	g.Edges = append(g.Edges, Edge{From: from, FromPort: fromPort, To: to, ToPort: toPort, SizeBytes: sizeBytes})
	// Mark the destination input as dataflow, growing Inputs if needed. A
	// path already recorded for the port (the editor lets users name the
	// file a dataflow input corresponds to, as Fig. 1 does for
	// matrix_A.dat) is preserved.
	for len(tt.Props.Inputs) <= toPort {
		tt.Props.Inputs = append(tt.Props.Inputs, FileSpec{})
	}
	spec := FileSpec{Dataflow: true, SizeBytes: sizeBytes, Path: tt.Props.Inputs[toPort].Path}
	if spec.SizeBytes == 0 {
		spec.SizeBytes = tt.Props.Inputs[toPort].SizeBytes
	}
	tt.Props.Inputs[toPort] = spec
	return nil
}

// Parents returns the IDs of tasks with an edge into id, deduplicated and
// sorted.
func (g *Graph) Parents(id TaskID) []TaskID { return g.linked(id, true) }

// Children returns the IDs of tasks with an edge out of id, deduplicated
// and sorted.
func (g *Graph) Children(id TaskID) []TaskID { return g.linked(id, false) }

// linked returns the tasks at the far end of id's in-edges (in) or
// out-edges, deduplicated and sorted.
func (g *Graph) linked(id TaskID, in bool) []TaskID {
	var out []TaskID
	for _, e := range g.Edges {
		switch {
		case in && e.To == id:
			out = append(out, e.From)
		case !in && e.From == id:
			out = append(out, e.To)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// InEdges returns the edges into id in insertion order.
func (g *Graph) InEdges(id TaskID) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// Entries returns tasks with no parents — the paper's "entry nodes".
func (g *Graph) Entries() []TaskID { return g.unlinked(true) }

// Exits returns tasks with no children — the paper's "exit nodes".
func (g *Graph) Exits() []TaskID { return g.unlinked(false) }

// unlinked returns the tasks with no in-edge (in) or no out-edge.
func (g *Graph) unlinked(in bool) []TaskID {
	linked := make([]bool, len(g.Tasks))
	for _, e := range g.Edges {
		if in {
			linked[e.To] = true
		} else {
			linked[e.From] = true
		}
	}
	var out []TaskID
	for i, l := range linked {
		if !l {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// EdgeSize returns the transfer size to use for edge e, following the
// paper's fallback chain: explicit edge size, then the producing output's
// FileSpec size, then the application input size.
func (g *Graph) EdgeSize(e Edge) int64 {
	if e.SizeBytes > 0 {
		return e.SizeBytes
	}
	if t := g.Task(e.From); t != nil && e.FromPort < len(t.Props.Outputs) {
		if s := t.Props.Outputs[e.FromPort].SizeBytes; s > 0 {
			return s
		}
	}
	return g.InputSizeBytes
}

// ErrCycle is returned by Validate and TopoSort when the graph has a
// directed cycle.
var ErrCycle = errors.New("afg: graph contains a cycle")

// Validate checks structural integrity: at least one task, all edge
// endpoints and ports valid (enforced during Connect but re-checked for
// deserialized graphs), acyclicity, every non-dataflow input of a
// non-entry task consistent, and parallel node counts positive. It is
// Shape without the analysis.
func (g *Graph) Validate() error {
	_, err := g.Shape()
	return err
}
