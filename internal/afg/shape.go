package afg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Shape is a valid graph's structure as every consumer of a job reads it:
// the topological order, the edges out of and into each task, and one
// numbering of all tasks' input ports. It is built in one pass and is
// read-only, so one Shape serves every job of its graph, concurrently.
type Shape struct {
	n, m int
	// order is the lexicographically smallest topological order.
	order []int
	// The edges out of task i are g.Edges[outEdge[k]] for k in
	// [outStart[i], outStart[i+1]), in insertion order, and child[k] is
	// the task each one enters.
	outStart, outEdge, child []int
	// The edges into task i are g.Edges[inEdge[k]] for k in
	// [inStart[i], inStart[i+1]), in insertion order.
	inStart, inEdge []int
	// Task i's input port p is number portBase[i]+p; portBase[n] counts
	// them all.
	portBase []int
	// outPorts and ends (From, FromPort, To, ToPort of every edge) are
	// what the analysis was made of, beside the input port counts.
	outPorts, ends []int
}

// Shape returns g's analysis, or the error Validate gives. The analysis
// is kept on the graph: each call checks every task's properties and
// that the kept analysis still fits g's tasks and edges, without
// allocating, and analyses g afresh only when it does not.
func (g *Graph) Shape() (*Shape, error) {
	if err := g.checkTasks(); err != nil {
		return nil, err
	}
	if s := g.shape.Load(); s != nil && s.fits(g) {
		return s, nil
	}
	s, err := g.analyse()
	if err != nil {
		return nil, err
	}
	g.shape.Store(s)
	return s, nil
}

// checkTasks is the part of Validate that looks at each task alone.
func (g *Graph) checkTasks() error {
	if len(g.Tasks) == 0 {
		return errors.New("afg: graph has no tasks")
	}
	for i, t := range g.Tasks {
		if t == nil {
			return fmt.Errorf("afg: task %d is null", i)
		}
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
	return nil
}

// fits reports whether s was made of g's current tasks and edges.
func (s *Shape) fits(g *Graph) bool {
	if len(g.Tasks) != s.n || len(g.Edges) != s.m {
		return false
	}
	for i, t := range g.Tasks {
		if t.InPorts != s.portBase[i+1]-s.portBase[i] || t.OutPorts != s.outPorts[i] {
			return false
		}
	}
	for i, e := range g.Edges {
		k := s.ends[4*i : 4*i+4]
		if int(e.From) != k[0] || e.FromPort != k[1] || int(e.To) != k[2] || e.ToPort != k[3] {
			return false
		}
	}
	return true
}

// analyse checks g's edges — endpoints, ports, each input port fed once,
// acyclicity — and builds its Shape in one block.
func (g *Graph) analyse() (*Shape, error) {
	doubled := firstDoubledPort(g.Edges)
	for i, e := range g.Edges {
		ft, tt := g.Task(e.From), g.Task(e.To)
		if ft == nil || tt == nil {
			return nil, fmt.Errorf("afg: edge %v references missing task", e)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("afg: self-loop on task %d", e.From)
		}
		if e.FromPort < 0 || e.FromPort >= ft.OutPorts {
			return nil, fmt.Errorf("afg: edge from invalid port %d of task %d (%s)", e.FromPort, e.From, ft.Name)
		}
		if e.ToPort < 0 || e.ToPort >= tt.InPorts {
			return nil, fmt.Errorf("afg: edge to invalid port %d of task %d (%s)", e.ToPort, e.To, tt.Name)
		}
		if i == doubled {
			return nil, fmt.Errorf("afg: input port %d of task %d (%s) multiply connected", e.ToPort, e.To, tt.Name)
		}
	}
	n, m := len(g.Tasks), len(g.Edges)
	buf := make([]int, 7*n+5+7*m)
	carve := func(k int) []int {
		part := buf[:k:k]
		buf = buf[k:]
		return part
	}
	s := &Shape{n: n, m: m, order: carve(n)[:0], portBase: carve(n + 1), outPorts: carve(n),
		outEdge: carve(m), child: carve(m), inEdge: carve(m), ends: carve(4 * m)}
	for i, t := range g.Tasks {
		s.portBase[i+1] = s.portBase[i] + t.InPorts
		s.outPorts[i] = t.OutPorts
	}
	for i, e := range g.Edges {
		k := s.ends[4*i : 4*i+4]
		k[0], k[1], k[2], k[3] = int(e.From), e.FromPort, int(e.To), e.ToPort
	}
	s.outStart = groupEdges(carve(n+2), s.outEdge, s.ends, 0)
	s.inStart = groupEdges(carve(n+2), s.inEdge, s.ends, 2)
	for k, ei := range s.outEdge {
		s.child[k] = s.ends[4*ei+2]
	}
	// Kahn's algorithm, the ready tasks in descending order so that the
	// smallest is taken from the end.
	indeg, ready := buf[:n], buf[n:n]
	for i := n - 1; i >= 0; i-- {
		if indeg[i] = s.inStart[i+1] - s.inStart[i]; indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		s.order = append(s.order, id)
		for _, c := range s.children(id) {
			if indeg[c]--; indeg[c] == 0 {
				at, _ := slices.BinarySearchFunc(ready, c, func(a, b int) int { return b - a })
				ready = slices.Insert(ready, at, c)
			}
		}
	}
	if len(s.order) != n {
		return nil, ErrCycle
	}
	return s, nil
}

// groupEdges sorts the edges into at by the task at field f of each in
// ends (0 the source, 2 the destination), in insertion order, and returns
// where each task's group starts. Group sizes are counted two slots right
// in start's n+2, so placing each edge moves its group's end to the next
// group's start.
func groupEdges(start, at, ends []int, f int) []int {
	for i := 0; i < len(ends); i += 4 {
		start[ends[i+f]+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for i := range at {
		t := ends[4*i+f]
		at[start[t+1]] = i
		start[t+1]++
	}
	return start[:len(start)-1]
}

// children returns the tasks id's out-edges enter, in edge order.
func (s *Shape) children(id int) []int { return s.child[s.outStart[id]:s.outStart[id+1]] }

// InEdges and OutEdges return the indices in g.Edges of the edges into
// and out of task id, in insertion order, in a slice of the shape's own.
func (s *Shape) InEdges(id TaskID) []int { return s.inEdge[s.inStart[id]:s.inStart[id+1]] }

// OutEdges is InEdges for the edges out of task id.
func (s *Shape) OutEdges(id TaskID) []int { return s.outEdge[s.outStart[id]:s.outStart[id+1]] }

// InputPorts returns where task id's input ports lie in one numbering of
// every task's: port p of task id is number lo+p, for p < hi-lo.
func (s *Shape) InputPorts(id TaskID) (lo, hi int) { return s.portBase[id], s.portBase[id+1] }

// NumInputPorts counts the input ports of every task.
func (s *Shape) NumInputPorts() int { return s.portBase[s.n] }

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
