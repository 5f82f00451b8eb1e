package afg

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func unitCost(TaskID) float64 { return 1 }

func TestTopoSortDiamond(t *testing.T) {
	g, ids := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topological violation: %d before %d", e.To, e.From)
		}
	}
	if order[0] != ids[0] || order[3] != ids[3] {
		t.Fatalf("unexpected order %v", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := NewGraph("c")
	a := g.AddTask("A", "l", 1, 1)
	b := g.AddTask("B", "l", 1, 1)
	_ = g.Connect(a, 0, b, 0, 0)
	_ = g.Connect(b, 0, a, 0, 0)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestLevelsDiamond(t *testing.T) {
	g, ids := diamond(t)
	levels, err := g.Levels(unitCost)
	if err != nil {
		t.Fatal(err)
	}
	// D is exit: level 1; B, C: 2; A: 3.
	want := map[TaskID]float64{ids[0]: 3, ids[1]: 2, ids[2]: 2, ids[3]: 1}
	for id, w := range want {
		if levels[id] != w {
			t.Fatalf("level[%d] = %g, want %g", id, levels[id], w)
		}
	}
}

func TestLevelsWeighted(t *testing.T) {
	// Chain A -> B -> C with costs 1, 10, 2: levels 13, 12, 2.
	g := NewGraph("chain")
	a := g.AddTask("A", "l", 0, 1)
	b := g.AddTask("B", "l", 1, 1)
	c := g.AddTask("C", "l", 1, 0)
	_ = g.Connect(a, 0, b, 0, 0)
	_ = g.Connect(b, 0, c, 0, 0)
	costs := map[TaskID]float64{a: 1, b: 10, c: 2}
	levels, err := g.Levels(func(id TaskID) float64 { return costs[id] })
	if err != nil {
		t.Fatal(err)
	}
	if levels[a] != 13 || levels[b] != 12 || levels[c] != 2 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestCriticalPath(t *testing.T) {
	g := NewGraph("cp")
	a := g.AddTask("A", "l", 0, 2)
	b := g.AddTask("B", "l", 1, 1) // cheap branch
	c := g.AddTask("C", "l", 1, 1) // expensive branch
	d := g.AddTask("D", "l", 2, 0)
	_ = g.Connect(a, 0, b, 0, 0)
	_ = g.Connect(a, 1, c, 0, 0)
	_ = g.Connect(b, 0, d, 0, 0)
	_ = g.Connect(c, 0, d, 1, 0)
	costs := map[TaskID]float64{a: 1, b: 1, c: 5, d: 1}
	path, total, err := g.CriticalPath(func(id TaskID) float64 { return costs[id] })
	if err != nil {
		t.Fatal(err)
	}
	if total != 7 {
		t.Fatalf("critical path cost %g, want 7", total)
	}
	want := []TaskID{a, c, d}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Fatalf("critical path %v, want %v", path, want)
	}
}

func TestReadySetDiamond(t *testing.T) {
	g, ids := diamond(t)
	rs := NewReadySet(g)
	if r := rs.Ready(); len(r) != 1 || r[0] != ids[0] {
		t.Fatalf("initial ready = %v", r)
	}
	if err := rs.Complete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if r := rs.Ready(); len(r) != 2 {
		t.Fatalf("after A, ready = %v", r)
	}
	if err := rs.Complete(ids[3]); err == nil {
		t.Fatal("completing a non-ready task should fail")
	}
	if err := rs.Complete(ids[1]); err != nil {
		t.Fatal(err)
	}
	if r := rs.Ready(); len(r) != 1 || r[0] != ids[2] {
		t.Fatalf("ready = %v with only one parent of D done, want C alone", r)
	}
	if err := rs.Complete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if r := rs.Ready(); len(r) != 1 || r[0] != ids[3] {
		t.Fatalf("ready = %v after both parents done, want D", r)
	}
	if err := rs.Complete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if !rs.Empty() {
		t.Fatalf("final state wrong: ready = %v", rs.Ready())
	}
}

// randomDAG builds a random layered DAG for property tests; edges only go
// from lower to higher IDs, so it is a DAG by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := NewGraph("rand")
	for i := 0; i < n; i++ {
		g.AddTask("T", "l", n, n)
	}
	port := make([]int, n) // next free input port per task
	for to := 1; to < n; to++ {
		parents := rng.Intn(min(to, 3) + 1)
		used := make(map[int]bool)
		for p := 0; p < parents; p++ {
			from := rng.Intn(to)
			if used[from] {
				continue
			}
			used[from] = true
			_ = g.Connect(TaskID(from), p, TaskID(to), port[to], int64(rng.Intn(1000)))
			port[to]++
		}
	}
	return g
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: topological order respects every edge, and levels satisfy the
// recursive definition level(t) = cost(t) + max(level(children)).
func TestTopoAndLevelProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw)%30 + 1
		g := randomDAG(rng, n)
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := make(map[TaskID]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.Edges {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		levels, err := g.Levels(unitCost)
		if err != nil {
			return false
		}
		for i := range g.Tasks {
			var maxChild float64
			for _, c := range g.Children(TaskID(i)) {
				if levels[c] > maxChild {
					maxChild = levels[c]
				}
			}
			if levels[i] != 1+maxChild {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: draining a ReadySet visits every task exactly once and never
// offers a task before all its parents completed.
func TestReadySetProperty(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw)%25 + 1
		g := randomDAG(rng, n)
		rs := NewReadySet(g)
		completed := make(map[TaskID]bool)
		for !rs.Empty() {
			ready := rs.Ready()
			id := ready[rng.Intn(len(ready))]
			for _, p := range g.Parents(id) {
				if !completed[p] {
					return false
				}
			}
			if err := rs.Complete(id); err != nil {
				return false
			}
			completed[id] = true
		}
		return len(completed) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// topoSortReference is the TopoSort this package shipped before the
// CSR pass: Kahn with the frontier re-sorted before every pop. It stays
// as the specification of the deterministic smallest-ID order.
func topoSortReference(g *Graph) ([]TaskID, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	adj := make([][]TaskID, n)
	for _, e := range g.Edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("afg: edge %v out of range", e)
		}
		indeg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
	}
	var frontier []TaskID
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier = append(frontier, TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, c := range adj[id] {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// scrambledGraph builds n tasks whose edges follow a random permutation
// (so IDs carry no topological information), with parallel edges, and —
// one time in four — a back edge or an out-of-range endpoint.
func scrambledGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph("scrambled")
	for i := 0; i < n; i++ {
		g.AddTask("T", "l", n, n)
	}
	rank := rng.Perm(n)
	for e := rng.Intn(3*n + 1); e > 0; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if rank[a] == rank[b] {
			continue
		}
		if rank[a] > rank[b] {
			a, b = b, a
		}
		g.Edges = append(g.Edges, Edge{From: TaskID(a), To: TaskID(b)})
	}
	switch rng.Intn(8) {
	case 0:
		if len(g.Edges) > 0 { // close a cycle over an existing edge
			e := g.Edges[rng.Intn(len(g.Edges))]
			g.Edges = append(g.Edges, Edge{From: e.To, To: e.From})
		}
	case 1:
		g.Edges = append(g.Edges, Edge{From: TaskID(rng.Intn(n)), To: TaskID(n + rng.Intn(2))})
	}
	return g
}

// Property: the CSR TopoSort is the reference TopoSort — same order on
// every DAG, ErrCycle and the range error on the same inputs.
func TestTopoSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var cycles, dags int
	for i := 0; i < 2000; i++ {
		g := scrambledGraph(rng, rng.Intn(40)+1)
		want, wantErr := topoSortReference(g)
		got, err := g.TopoSort()
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() || errors.Is(err, ErrCycle) != errors.Is(wantErr, ErrCycle) {
				t.Fatalf("graph %d: error %v, reference %v", i, err, wantErr)
			}
			cycles++
		case err != nil:
			t.Fatalf("graph %d: %v, reference sorted it", i, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("graph %d: order %v, reference %v (edges %v)", i, got, want, g.Edges)
		default:
			dags++
		}
	}
	if cycles < 100 || dags < 1000 {
		t.Fatalf("generator drifted: %d rejected, %d sorted", cycles, dags)
	}
	if order, err := NewGraph("empty").TopoSort(); err != nil || len(order) != 0 {
		t.Fatalf("empty graph: %v, %v", order, err)
	}
}

// TestTopoSortAllocBudget pins the one-buffer design: the whole pass —
// order, heap, in-degrees, adjacency — is a single allocation whatever
// the graph's size (the reference made one per task with children plus
// one per sort call).
func TestTopoSortAllocBudget(t *testing.T) {
	for _, n := range []int{6, 200} {
		g := randomDAG(rand.New(rand.NewSource(int64(n))), n)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := g.TopoSort(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%d tasks: TopoSort allocates %.0f times, budget 2", n, allocs)
		}
	}
}
