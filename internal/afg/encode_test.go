package afg

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g, ids := diamond(t)
	g.Owner = "user_k"
	g.InputSizeBytes = 12488
	if err := g.SetProps(ids[0], Properties{Mode: Parallel, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := g.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != g.Name || back.Owner != "user_k" || back.InputSizeBytes != 12488 {
		t.Fatal("metadata lost in round trip")
	}
	if len(back.Tasks) != 4 || len(back.Edges) != 4 {
		t.Fatal("structure lost in round trip")
	}
	if back.Task(ids[0]).Props.Mode != Parallel || back.Task(ids[0]).Props.Nodes != 2 {
		t.Fatal("properties lost in round trip")
	}
}

// TestAppendJSONMatchesEncodingJSON pins the hand-written encoder to the
// struct tags on graphs a decoder would refuse too: nil and empty lists,
// a nil task, every optional field set and unset.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	full, ids := diamond(t)
	full.Owner = "user <k>"
	full.InputSizeBytes = 1 << 40
	if err := full.SetProps(ids[1], Properties{
		Mode: Parallel, Nodes: 4, MachineType: "SUN Solaris", Host: "serval",
		Inputs:   []FileSpec{{Path: "a&b.dat", SizeBytes: 7, URL: true}},
		Outputs:  []FileSpec{{}, {Dataflow: true}},
		Services: []string{"io", "console"},
		Args:     map[string]string{"n": "8", "seed": "\u2028", "<": ">"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{
		full,
		{},
		{Name: "empty lists", Tasks: []*Task{}, Edges: []Edge{}},
		{Name: "nil task", Tasks: []*Task{nil, {ID: 1, Name: "B"}}},
		{Name: "bare", Tasks: []*Task{{Props: Properties{Inputs: []FileSpec{}, Args: map[string]string{}}}}, Edges: []Edge{{To: 1, SizeBytes: -1}}},
	} {
		want, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot  %s\nwant %s", g.Name, got, want)
		}
		if got := g.AppendJSON([]byte("prefix")); !bytes.Equal(got[6:], want) {
			t.Errorf("%s: appending after a prefix changed the encoding", g.Name)
		}
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
	// Valid JSON but invalid graph (cycle).
	bad := `{"name":"c","tasks":[
	  {"id":0,"name":"A","in_ports":1,"out_ports":1,"props":{"mode":0,"nodes":1}},
	  {"id":1,"name":"B","in_ports":1,"out_ports":1,"props":{"mode":0,"nodes":1}}],
	  "edges":[{"from":0,"to":1},{"from":1,"to":0}]}`
	if _, err := DecodeJSON([]byte(bad)); err == nil {
		t.Fatal("expected validation error for cyclic graph")
	}
}

func TestDOT(t *testing.T) {
	g, ids := diamond(t)
	if err := g.SetProps(ids[0], Properties{Mode: Parallel, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{"digraph", "peripheries=2", "t0 -> t1", "100B"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestSummary(t *testing.T) {
	g, _ := diamond(t)
	s := g.Summary()
	for _, want := range []string{"4 tasks", "entry", "after B, C"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}
