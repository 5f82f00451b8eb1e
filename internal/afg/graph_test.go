package afg

import (
	"errors"
	"strings"
	"testing"
)

// diamond builds the canonical 4-task diamond A -> {B, C} -> D.
func diamond(t *testing.T) (*Graph, [4]TaskID) {
	t.Helper()
	g := NewGraph("diamond")
	a := g.AddTask("A", "test", 0, 2)
	b := g.AddTask("B", "test", 1, 1)
	c := g.AddTask("C", "test", 1, 1)
	d := g.AddTask("D", "test", 2, 0)
	for _, conn := range []struct {
		f  TaskID
		fp int
		to TaskID
		tp int
	}{{a, 0, b, 0}, {a, 1, c, 0}, {b, 0, d, 0}, {c, 0, d, 1}} {
		if err := g.Connect(conn.f, conn.fp, conn.to, conn.tp, 100); err != nil {
			t.Fatal(err)
		}
	}
	return g, [4]TaskID{a, b, c, d}
}

func TestAddTaskAssignsDenseIDs(t *testing.T) {
	g := NewGraph("x")
	for i := 0; i < 5; i++ {
		if id := g.AddTask("t", "lib", 1, 1); int(id) != i {
			t.Fatalf("AddTask returned %d, want %d", id, i)
		}
	}
	if g.Task(2) == nil || g.Task(5) != nil || g.Task(-1) != nil {
		t.Fatal("Task lookup out-of-range behaviour wrong")
	}
}

func TestConnectValidation(t *testing.T) {
	g := NewGraph("x")
	a := g.AddTask("A", "lib", 0, 1)
	b := g.AddTask("B", "lib", 1, 0)
	if err := g.Connect(a, 0, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
	}{
		{"missing task", g.Connect(a, 0, 99, 0, 0)},
		{"self loop", g.Connect(a, 0, a, 0, 0)},
		{"bad from port", g.Connect(a, 5, b, 0, 0)},
		{"bad to port", g.Connect(a, 0, b, 5, 0)},
		{"port already connected", g.Connect(a, 0, b, 0, 0)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// The connected input must have been marked dataflow.
	if !g.Task(b).Props.Inputs[0].Dataflow {
		t.Fatal("Connect did not mark input as dataflow")
	}
}

func TestParentsChildrenEntriesExits(t *testing.T) {
	g, ids := diamond(t)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	if got := g.Parents(d); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Parents(D) = %v", got)
	}
	if got := g.Children(a); len(got) != 2 || got[0] != b || got[1] != c {
		t.Fatalf("Children(A) = %v", got)
	}
	if got := g.Entries(); len(got) != 1 || got[0] != a {
		t.Fatalf("Entries = %v", got)
	}
	if got := g.Exits(); len(got) != 1 || got[0] != d {
		t.Fatalf("Exits = %v", got)
	}
	if got := g.InEdges(d); len(got) != 2 {
		t.Fatalf("InEdges(D) = %v", got)
	}
}

func TestValidateOK(t *testing.T) {
	g, _ := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := NewGraph("cycle")
	a := g.AddTask("A", "lib", 1, 1)
	b := g.AddTask("B", "lib", 1, 1)
	if err := g.Connect(a, 0, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(b, 0, a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("got %v, want ErrCycle", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Graph)
	}{
		{"empty", func(g *Graph) { g.Tasks = nil; g.Edges = nil }},
		{"bad id", func(g *Graph) { g.Tasks[1].ID = 7 }},
		{"empty name", func(g *Graph) { g.Tasks[0].Name = "" }},
		{"negative ports", func(g *Graph) { g.Tasks[0].InPorts = -1 }},
		{"parallel zero nodes", func(g *Graph) {
			g.Tasks[0].Props.Mode = Parallel
			g.Tasks[0].Props.Nodes = 0
		}},
		{"edge missing task", func(g *Graph) { g.Edges[0].To = 99 }},
		{"edge self loop", func(g *Graph) { g.Edges[0].To = g.Edges[0].From }},
		{"edge bad from port", func(g *Graph) { g.Edges[0].FromPort = 9 }},
		{"edge bad to port", func(g *Graph) { g.Edges[0].ToPort = 9 }},
		{"double-connected port", func(g *Graph) { g.Edges[1] = g.Edges[0] }},
		{"too many input specs", func(g *Graph) {
			g.Tasks[0].Props.Inputs = make([]FileSpec, 10)
		}},
		{"too many output specs", func(g *Graph) {
			g.Tasks[0].Props.Outputs = make([]FileSpec, 10)
		}},
	}
	for _, c := range cases {
		g, _ := diamond(t)
		c.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt graph", c.name)
		}
	}
}

func TestSetProps(t *testing.T) {
	g, ids := diamond(t)
	if err := g.SetProps(ids[1], Properties{Mode: Parallel, Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	if g.Task(ids[1]).Props.Nodes != 4 {
		t.Fatal("SetProps lost node count")
	}
	// Sequential normalizes nodes to 1; parallel with 0 nodes normalizes up.
	if err := g.SetProps(ids[2], Properties{Mode: Sequential, Nodes: 9}); err != nil {
		t.Fatal(err)
	}
	if g.Task(ids[2]).Props.Nodes != 1 {
		t.Fatal("sequential task should have 1 node")
	}
	if err := g.SetProps(ids[3], Properties{Mode: Parallel}); err != nil {
		t.Fatal(err)
	}
	if g.Task(ids[3]).Props.Nodes != 1 {
		t.Fatal("parallel task with no node count should default to 1")
	}
	if err := g.SetProps(99, Properties{}); err == nil {
		t.Fatal("SetProps on missing task should fail")
	}
}

func TestEdgeSizeFallbacks(t *testing.T) {
	g := NewGraph("x")
	g.InputSizeBytes = 5000
	a := g.AddTask("A", "lib", 0, 1)
	b := g.AddTask("B", "lib", 1, 0)
	if err := g.Connect(a, 0, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	e := g.Edges[0]
	// No explicit size, no output spec -> app input size.
	if s := g.EdgeSize(e); s != 5000 {
		t.Fatalf("EdgeSize fallback = %d, want 5000", s)
	}
	// Output spec size takes precedence over app input size.
	g.Task(a).Props.Outputs = []FileSpec{{Path: "out", SizeBytes: 777}}
	if s := g.EdgeSize(e); s != 777 {
		t.Fatalf("EdgeSize from output spec = %d, want 777", s)
	}
	// Explicit edge size wins.
	e.SizeBytes = 42
	if s := g.EdgeSize(e); s != 42 {
		t.Fatalf("EdgeSize explicit = %d, want 42", s)
	}
}

func TestPropertiesWindowRendering(t *testing.T) {
	g, ids := diamond(t)
	if err := g.SetProps(ids[0], Properties{
		Mode: Parallel, Nodes: 2,
		Inputs:  []FileSpec{},
		Outputs: []FileSpec{{Path: "/users/VDCE/user_k/matrix_A.dat", SizeBytes: 12488}},
	}); err != nil {
		t.Fatal(err)
	}
	w := g.Task(ids[0]).PropertiesWindow()
	for _, want := range []string{"Task <A>", "<parallel>", "Number of Nodes: 2", "matrix_A.dat, SIZE=12488"} {
		if !strings.Contains(w, want) {
			t.Errorf("PropertiesWindow missing %q:\n%s", want, w)
		}
	}
}

func TestFileSpecString(t *testing.T) {
	cases := []struct {
		spec FileSpec
		want string
	}{
		{FileSpec{Dataflow: true}, "<dataflow>"},
		{FileSpec{}, "<unset>"},
		{FileSpec{Path: "a.dat"}, "<a.dat>"},
		{FileSpec{Path: "a.dat", SizeBytes: 9}, "<a.dat, SIZE=9>"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("FileSpec%v.String() = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestComputationModeString(t *testing.T) {
	if Sequential.String() != "<sequential>" || Parallel.String() != "<parallel>" {
		t.Fatal("mode strings wrong")
	}
	if !strings.Contains(ComputationMode(9).String(), "9") {
		t.Fatal("unknown mode string wrong")
	}
}
