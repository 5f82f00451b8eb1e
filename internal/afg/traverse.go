package afg

import (
	"fmt"
	"slices"
)

// TopoSort returns the task IDs in a topological order (Kahn's
// algorithm; ties broken by ascending ID for determinism, so the result
// is the lexicographically smallest order). It returns ErrCycle if the
// graph is not a DAG.
func (g *Graph) TopoSort() ([]TaskID, error) {
	order, _, _, _, err := g.kahn()
	return order, err
}

// kahn computes the topological order together with the adjacency it
// walked, in compressed sparse row form: the children of task i are
// child[start[i]:start[i+1]], in edge insertion order. Everything lives
// in one allocation — order, the ready heap, in-degrees, row starts and
// children — so the returned slices keep each other alive. spare is the
// 2n words the sort is done with: the emptied heap, then the in-degrees,
// all back at zero.
func (g *Graph) kahn() (order, start, child, spare []TaskID, err error) {
	n, m := len(g.Tasks), len(g.Edges)
	buf := make([]TaskID, 4*n+2+m)
	order, ready, indeg := buf[:0:n], buf[n:n:2*n], buf[2*n:3*n]
	start, child = buf[3*n:4*n+2], buf[4*n+2:]
	// Row sizes are counted two slots to the right, summed so that
	// start[i+1] is where row i begins, and each placed child then
	// advances start[i+1] to where row i ends — which is where row i+1
	// begins, leaving start[i] the beginning of row i.
	for _, e := range g.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, nil, nil, nil, fmt.Errorf("afg: edge %v out of range", e)
		}
		indeg[e.To]++
		start[e.From+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for _, e := range g.Edges {
		child[start[e.From+1]] = e.To
		start[e.From+1]++
	}
	start = start[:n+1]
	// Ascending IDs are already a valid min-heap.
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, TaskID(i))
		}
	}
	for len(ready) > 0 {
		id := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready)
		order = append(order, id)
		for _, c := range child[start[id]:start[id+1]] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
				siftUp(ready)
			}
		}
	}
	if len(order) != n {
		return nil, nil, nil, nil, ErrCycle
	}
	return order, start, child, buf[n : 3*n], nil
}

// siftUp restores the min-heap after an append.
func siftUp(h []TaskID) {
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap after the root was replaced.
func siftDown(h []TaskID) {
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < len(h) && h[l] < h[small] {
			small = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// CostFunc supplies the computation cost of a task "on the base
// processor" — the paper takes this from the task-performance database.
type CostFunc func(TaskID) float64

// Levels computes the level of every node: the largest sum of
// computation costs along any path from the node to an exit node,
// including the node's own cost (Kwok & Ahmad's static b-level restricted
// to computation costs, as the paper specifies). The node with the higher
// level has the higher scheduling priority.
func (g *Graph) Levels(cost CostFunc) ([]float64, error) {
	order, start, child, _, err := g.kahn()
	if err != nil {
		return nil, err
	}
	return levelsOf(order, start, child, cost), nil
}

// Prepare is what a scheduling round needs of g before it places
// anything, from one topological pass: it validates g (as Validate),
// computes every task's level under cost (as Levels; none when cost is
// nil) and returns a ReadySet over the entry nodes (as NewReadySet).
func (g *Graph) Prepare(cost CostFunc) (levels []float64, rs *ReadySet, err error) {
	if err := g.checkShape(); err != nil {
		return nil, nil, err
	}
	order, start, child, spare, err := g.kahn()
	if err != nil {
		return nil, nil, err
	}
	if cost != nil {
		levels = levelsOf(order, start, child, cost)
	}
	return levels, newReadySet(g, start, child, spare), nil
}

// levelsOf computes the levels over kahn's order and adjacency.
func levelsOf(order, start, child []TaskID, cost CostFunc) []float64 {
	n := len(order)
	levels := make([]float64, n)
	// Walk in reverse topological order so children are final first.
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, c := range child[start[id]:start[id+1]] {
			if levels[c] > best {
				best = levels[c]
			}
		}
		levels[id] = cost(id) + best
	}
	return levels
}

// CriticalPath returns the task sequence realizing the maximum level from
// any entry node, i.e. the computation-cost critical path, along with its
// total cost.
func (g *Graph) CriticalPath(cost CostFunc) ([]TaskID, float64, error) {
	levels, err := g.Levels(cost)
	if err != nil {
		return nil, 0, err
	}
	// Start at the entry (or any node) with the max level.
	best := TaskID(-1)
	for i := range g.Tasks {
		if best == -1 || levels[i] > levels[best] {
			best = TaskID(i)
		}
	}
	if best == -1 {
		return nil, 0, fmt.Errorf("afg: empty graph")
	}
	total := levels[best]
	var path []TaskID
	cur := best
	for {
		path = append(path, cur)
		children := g.Children(cur)
		if len(children) == 0 {
			break
		}
		// Follow the child whose level dominates: level(cur) = cost(cur) + max child level.
		next := children[0]
		for _, c := range children[1:] {
			if levels[c] > levels[next] {
				next = c
			}
		}
		cur = next
	}
	return path, total, nil
}

// ReadySet maintains the paper's ready-tasks set: tasks all of whose
// parents have been scheduled. Initialize with the entry nodes, then
// Complete tasks as the site scheduler assigns them. Its state is
// TaskID-indexed slices carved from kahn's one buffer.
type ReadySet struct {
	start, child []TaskID // children of task i: child[start[i]:start[i+1]]
	remaining    []TaskID // in-edges from unscheduled parents, per task
	ready        []TaskID // ascending IDs
}

// NewReadySet builds a ReadySet whose initial members are the graph's
// entry nodes. A graph that fails Validate has no ready tasks.
func NewReadySet(g *Graph) *ReadySet {
	_, start, child, spare, err := g.kahn()
	if err != nil {
		return &ReadySet{}
	}
	return newReadySet(g, start, child, spare)
}

// newReadySet starts a ReadySet on kahn's adjacency and spare words.
func newReadySet(g *Graph, start, child, spare []TaskID) *ReadySet {
	n := len(g.Tasks)
	rs := &ReadySet{start: start, child: child, remaining: spare[n:], ready: spare[:0:n]}
	for _, e := range g.Edges {
		rs.remaining[e.To]++
	}
	for i := range g.Tasks {
		if rs.remaining[i] == 0 {
			rs.ready = append(rs.ready, TaskID(i))
		}
	}
	return rs
}

// Ready returns the current ready tasks sorted by ID. The slice is the
// set's own and holds until the next Complete: do not modify it.
func (rs *ReadySet) Ready() []TaskID { return rs.ready }

// Empty reports whether no tasks remain ready.
func (rs *ReadySet) Empty() bool { return len(rs.ready) == 0 }

// Complete removes id from the ready set and adds any children whose
// parents are now all complete, mirroring step 7 of the site scheduler.
// It returns an error if id was not ready (a scheduler bug).
func (rs *ReadySet) Complete(id TaskID) error {
	at, ok := slices.BinarySearch(rs.ready, id)
	if !ok {
		return fmt.Errorf("afg: task %d completed but not ready", id)
	}
	rs.ready = slices.Delete(rs.ready, at, at+1)
	for _, c := range rs.child[rs.start[id]:rs.start[id+1]] {
		rs.remaining[c]--
		if rs.remaining[c] == 0 {
			at, _ := slices.BinarySearch(rs.ready, c)
			rs.ready = slices.Insert(rs.ready, at, c)
		}
	}
	return nil
}
