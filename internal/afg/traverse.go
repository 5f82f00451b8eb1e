package afg

import (
	"fmt"
	"slices"
)

// TopoSort returns the task IDs in a topological order (Kahn's
// algorithm; ties broken by ascending ID for determinism, so the result
// is the lexicographically smallest order), a slice of the caller's own.
// It returns Validate's error for a graph that fails it: ErrCycle if the
// graph is not a DAG.
func (g *Graph) TopoSort() ([]TaskID, error) {
	s, err := g.Shape()
	if err != nil {
		return nil, err
	}
	order := make([]TaskID, s.n)
	for i, id := range s.order {
		order[i] = TaskID(id)
	}
	return order, nil
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
	s, err := g.Shape()
	if err != nil {
		return nil, err
	}
	return s.levels(cost, nil), nil
}

// Round is one scheduling round's per-task state: every task's level and
// the ready set. Prepare refills it in the arrays it already has when
// they are long enough, so a caller that keeps a Round from one round to
// the next allocates nothing for it.
type Round struct {
	Levels []float64 // by task ID; nil when Prepare had no cost
	Ready  ReadySet
}

// Prepare is what a scheduling round needs of g before it places
// anything: g's Shape, so g is valid (as Validate), every task's level
// under cost in r.Levels (as Levels; none when cost is nil) and r.Ready
// over the entry nodes (as NewReadySet).
func (g *Graph) Prepare(cost CostFunc, r *Round) (*Shape, error) {
	s, err := g.Shape()
	if err != nil {
		return nil, err
	}
	buf := r.Levels[:cap(r.Levels)]
	r.Levels = nil
	if cost != nil {
		r.Levels = s.levels(cost, buf)
	}
	r.Ready.reset(s)
	return s, nil
}

// levels computes the levels into buf, grown if short.
func (s *Shape) levels(cost CostFunc, buf []float64) []float64 {
	if len(buf) < s.n {
		buf = make([]float64, s.n)
	}
	levels := buf[:s.n]
	// Walk in reverse topological order so children are final first.
	for i := s.n - 1; i >= 0; i-- {
		id := s.order[i]
		var best float64
		for _, c := range s.children(id) {
			best = max(best, levels[c])
		}
		levels[id] = cost(TaskID(id)) + best
	}
	return levels
}

// CriticalPath returns the task sequence realizing the maximum level from
// any entry node, i.e. the computation-cost critical path, along with its
// total cost.
func (g *Graph) CriticalPath(cost CostFunc) ([]TaskID, float64, error) {
	s, err := g.Shape()
	if err != nil {
		return nil, 0, err
	}
	levels := s.levels(cost, nil)
	// Start at the lowest-ID task with the max level, and follow the
	// lowest-ID child whose level dominates: level(cur) = cost(cur) + max
	// child level.
	cur := 0
	for i := range levels {
		if levels[i] > levels[cur] {
			cur = i
		}
	}
	path := []TaskID{TaskID(cur)}
	for kids := s.children(cur); len(kids) > 0; kids = s.children(cur) {
		cur = kids[0]
		for _, c := range kids[1:] {
			if levels[c] > levels[cur] || levels[c] == levels[cur] && c < cur {
				cur = c
			}
		}
		path = append(path, TaskID(cur))
	}
	return path, levels[path[0]], nil
}

// ReadySet maintains the paper's ready-tasks set: tasks all of whose
// parents have been scheduled. Initialize with the entry nodes, then
// Complete tasks as the site scheduler assigns them. It walks its
// graph's Shape; its own state is two TaskID-indexed arrays in one block.
type ReadySet struct {
	shape     *Shape
	remaining []TaskID // in-edges from unscheduled parents, per task
	ready     []TaskID // ascending IDs
}

// NewReadySet builds a ReadySet whose initial members are the graph's
// entry nodes. A graph that fails Validate has no ready tasks.
func NewReadySet(g *Graph) *ReadySet {
	rs := &ReadySet{}
	if s, err := g.Shape(); err == nil {
		rs.reset(s)
	}
	return rs
}

// reset starts rs over s's entry nodes, in its own block if that is
// long enough: remaining is the block's head, and its capacity the whole.
func (rs *ReadySet) reset(s *Shape) {
	block := rs.remaining[:cap(rs.remaining)]
	if len(block) < 2*s.n {
		block = make([]TaskID, 2*s.n)
	}
	rs.shape, rs.remaining, rs.ready = s, block[:s.n], block[s.n:s.n:2*s.n]
	for i := range s.n {
		rs.remaining[i] = TaskID(s.inStart[i+1] - s.inStart[i])
		if rs.remaining[i] == 0 {
			rs.ready = append(rs.ready, TaskID(i))
		}
	}
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
	for _, c := range rs.shape.children(int(id)) {
		rs.remaining[c]--
		if rs.remaining[c] == 0 {
			at, _ := slices.BinarySearch(rs.ready, TaskID(c))
			rs.ready = slices.Insert(rs.ready, at, TaskID(c))
		}
	}
	return nil
}
