package afg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// them as immutable once validated.
type Graph struct {
	Name  string  `json:"name"`
	Owner string  `json:"owner,omitempty"`
	Tasks []*Task `json:"tasks"`
	Edges []Edge  `json:"edges"`
	// InputSizeBytes is the application-level input size the paper says may
	// be used as the transfer-size parameter when edge sizes are unknown.
	InputSizeBytes int64 `json:"input_size_bytes,omitempty"`
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
func (g *Graph) Parents(id TaskID) []TaskID {
	seen := make(map[TaskID]bool)
	var out []TaskID
	for _, e := range g.Edges {
		if e.To == id && !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns the IDs of tasks with an edge out of id, deduplicated
// and sorted.
func (g *Graph) Children(id TaskID) []TaskID {
	seen := make(map[TaskID]bool)
	var out []TaskID
	for _, e := range g.Edges {
		if e.From == id && !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// InEdgeIndex is InEdges for every task at once, for walkers that would
// otherwise rescan the edge list per task: the edges into task id are
// g.Edges[at[j]] for j in [start[id], start[id+1]), in insertion order.
// The graph must be valid.
func (g *Graph) InEdgeIndex() (start, at []int32) {
	n := len(g.Tasks)
	buf := make([]int32, n+2+len(g.Edges))
	start, at = buf[:n+2], buf[n+2:]
	// The same two-slots-to-the-right counting sort as kahn's rows.
	for _, e := range g.Edges {
		start[e.To+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for i, e := range g.Edges {
		at[start[e.To+1]] = int32(i)
		start[e.To+1]++
	}
	return start[:n+1], at
}

// Entries returns tasks with no parents — the paper's "entry nodes".
func (g *Graph) Entries() []TaskID {
	hasParent := make([]bool, len(g.Tasks))
	for _, e := range g.Edges {
		hasParent[e.To] = true
	}
	var out []TaskID
	for i := range g.Tasks {
		if !hasParent[i] {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns tasks with no children — the paper's "exit nodes".
func (g *Graph) Exits() []TaskID {
	hasChild := make([]bool, len(g.Tasks))
	for _, e := range g.Edges {
		hasChild[e.From] = true
	}
	var out []TaskID
	for i := range g.Tasks {
		if !hasChild[i] {
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
// non-entry task consistent, and parallel node counts positive.
func (g *Graph) Validate() error {
	if err := g.checkShape(); err != nil {
		return err
	}
	_, _, _, _, err := g.kahn()
	return err
}

// checkShape is Validate short of acyclicity: the checks that need no
// topological pass.
func (g *Graph) checkShape() error {
	if len(g.Tasks) == 0 {
		return errors.New("afg: graph has no tasks")
	}
	for i, t := range g.Tasks {
		if t.ID != TaskID(i) {
			return fmt.Errorf("afg: task %q has ID %d at index %d", t.Name, t.ID, i)
		}
		if t.Name == "" {
			return fmt.Errorf("afg: task %d has empty name", i)
		}
		if t.InPorts < 0 || t.OutPorts < 0 {
			return fmt.Errorf("afg: task %d (%s) has negative port count", i, t.Name)
		}
		if t.Props.Mode == Parallel && t.Props.Nodes < 1 {
			return fmt.Errorf("afg: parallel task %d (%s) has node count %d", i, t.Name, t.Props.Nodes)
		}
		if len(t.Props.Inputs) > t.InPorts {
			return fmt.Errorf("afg: task %d (%s) has %d input specs for %d ports", i, t.Name, len(t.Props.Inputs), t.InPorts)
		}
		if len(t.Props.Outputs) > t.OutPorts {
			return fmt.Errorf("afg: task %d (%s) has %d output specs for %d ports", i, t.Name, len(t.Props.Outputs), t.OutPorts)
		}
	}
	doubled := firstDoubledPort(g.Edges)
	for i, e := range g.Edges {
		ft, tt := g.Task(e.From), g.Task(e.To)
		if ft == nil || tt == nil {
			return fmt.Errorf("afg: edge %v references missing task", e)
		}
		if e.From == e.To {
			return fmt.Errorf("afg: self-loop on task %d", e.From)
		}
		if e.FromPort < 0 || e.FromPort >= ft.OutPorts {
			return fmt.Errorf("afg: edge from invalid port %d of task %d (%s)", e.FromPort, e.From, ft.Name)
		}
		if e.ToPort < 0 || e.ToPort >= tt.InPorts {
			return fmt.Errorf("afg: edge to invalid port %d of task %d (%s)", e.ToPort, e.To, tt.Name)
		}
		if i == doubled {
			return fmt.Errorf("afg: input port %d of task %d (%s) multiply connected", e.ToPort, e.To, tt.Name)
		}
	}
	return nil
}

// firstDoubledPort returns the index of the first edge that lands on an
// input port an earlier edge lands on, or len(edges) if none does. The
// landings (task, port, edge) sort in one block sized once, so each
// port's run starts with the edge that took it first.
func firstDoubledPort(edges []Edge) int {
	var small [16][3]int // a small graph's landings stay on the stack
	ls := small[:0]
	if len(edges) > len(small) {
		ls = make([][3]int, 0, len(edges))
	}
	for i, e := range edges {
		ls = append(ls, [3]int{int(e.To), e.ToPort, i})
	}
	slices.SortFunc(ls, func(a, b [3]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[2], b[2]))
	})
	first := len(edges)
	for i := 1; i < len(ls); i++ {
		if ls[i][0] == ls[i-1][0] && ls[i][1] == ls[i-1][1] {
			first = min(first, ls[i][2])
		}
	}
	return first
}
