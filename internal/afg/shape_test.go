package afg

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Property: a Shape is the plain walks it replaces. Its order is the
// reference TopoSort's, the lexicographically smallest Kahn order; the
// edges it lists into a task are InEdges', and the edges out of a task
// are the task's edges in the graph's order; its port numbering counts
// each task's input ports in ID order.
func TestShapeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 1000; i++ {
		g := randomDAG(rng, rng.Intn(40)+1)
		if i%2 == 1 {
			g = scrambledGraph(rng, rng.Intn(40)+1)
			ownPorts(g)
		}
		s, err := g.Shape()
		want, wantErr := topoSortReference(g)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("graph %d: Shape error %v, reference %v", i, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("graph %d: %v, reference sorted it", i, err)
		}
		order := make([]TaskID, len(s.order))
		for k, id := range s.order {
			order[k] = TaskID(id)
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("graph %d: order %v, reference %v", i, order, want)
		}
		port := 0
		for id := range g.Tasks {
			var in, out []Edge
			for _, k := range s.InEdges(TaskID(id)) {
				in = append(in, g.Edges[k])
			}
			for _, k := range s.OutEdges(TaskID(id)) {
				out = append(out, g.Edges[k])
			}
			var wantOut []Edge
			for _, e := range g.Edges {
				if e.From == TaskID(id) {
					wantOut = append(wantOut, e)
				}
			}
			if !reflect.DeepEqual(in, g.InEdges(TaskID(id))) || !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("graph %d task %d: in %v out %v, want in %v out %v",
					i, id, in, out, g.InEdges(TaskID(id)), wantOut)
			}
			if lo, hi := s.InputPorts(TaskID(id)); lo != port || hi-lo != g.Tasks[id].InPorts {
				t.Fatalf("graph %d task %d: ports [%d, %d), want %d from %d", i, id, lo, hi, g.Tasks[id].InPorts, port)
			}
			port += g.Tasks[id].InPorts
		}
		if s.NumInputPorts() != port {
			t.Fatalf("graph %d: %d input ports, want %d", i, s.NumInputPorts(), port)
		}
	}
}

// TestShapeIsKeptUntilTheGraphChanges: an unedited graph is analysed
// once, and every edit the analysis depends on — an edge added, moved or
// removed, a port count changed — is analysed afresh, a bad one refused.
// A property the analysis does not read is re-checked on every call.
func TestShapeIsKeptUntilTheGraphChanges(t *testing.T) {
	g, ids := diamond(t)
	first, err := g.Shape()
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if s, err := g.Shape(); err != nil || s != first {
			t.Fatalf("unedited graph: shape %p (%v), want the first %p", s, err, first)
		}
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = g.Shape() }); n != 0 {
		t.Fatalf("a kept shape costs %.0f allocations a call", n)
	}
	for _, c := range []struct {
		name string
		edit func(*Graph)
		want string // the refusal; "" for a fresh analysis
	}{
		{"edge added", func(g *Graph) {
			g.Tasks[ids[3]].InPorts = 3
			g.Edges = append(g.Edges, Edge{From: ids[0], FromPort: 0, To: ids[3], ToPort: 2})
		}, ""},
		{"edge moved", func(g *Graph) { g.Edges[3].ToPort = 0 }, "multiply connected"},
		{"edge removed", func(g *Graph) { g.Edges = g.Edges[:3] }, ""},
		{"cycle", func(g *Graph) {
			g.Tasks[ids[0]].InPorts = 1
			g.Edges = append(g.Edges, Edge{From: ids[1], To: ids[0]})
		}, ErrCycle.Error()},
		{"out ports", func(g *Graph) { g.Tasks[ids[0]].OutPorts = 1 }, "invalid port 1"},
		{"in ports", func(g *Graph) { g.Tasks[ids[3]].InPorts = 3 }, ""},
		{"parallel task with no nodes", func(g *Graph) {
			g.Tasks[ids[1]].Props = Properties{Mode: Parallel}
		}, "node count 0"},
	} {
		g, _ := diamond(t)
		kept, _ := g.Shape()
		c.edit(g)
		s, err := g.Shape()
		switch {
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: Shape = %v, want an error with %q", c.name, err, c.want)
		case c.want == "" && (err != nil || s == kept):
			t.Errorf("%s: Shape = %p (%v), want a fresh analysis", c.name, s, err)
		case c.want == "" && fmt.Sprint(s.InEdges(ids[3])) != fmt.Sprint(refInEdges(g, ids[3])):
			t.Errorf("%s: in-edges of %d %v, want %v", c.name, ids[3], s.InEdges(ids[3]), refInEdges(g, ids[3]))
		}
	}
}

// refInEdges lists the indices of the edges into id.
func refInEdges(g *Graph, id TaskID) []int {
	var out []int
	for i, e := range g.Edges {
		if e.To == id {
			out = append(out, i)
		}
	}
	return out
}
