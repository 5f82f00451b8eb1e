package afg

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// fuzzSeeds builds the seed corpus: encodings of representative valid
// graphs (sequential chain, diamond with a parallel task, fan-out) plus
// corrupt and adversarial JSON payloads.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte

	chain := NewGraph("chain")
	a := chain.AddTask("A", "lib", 0, 1)
	b := chain.AddTask("B", "lib", 1, 1)
	c := chain.AddTask("C", "lib", 1, 0)
	if err := chain.Connect(a, 0, b, 0, 128); err != nil {
		f.Fatal(err)
	}
	if err := chain.Connect(b, 0, c, 0, 0); err != nil {
		f.Fatal(err)
	}

	diamond := NewGraph("diamond")
	d0 := diamond.AddTask("Entry", "lib", 0, 2)
	d1 := diamond.AddTask("Left", "lib", 1, 1)
	d2 := diamond.AddTask("Right", "lib", 1, 1)
	d3 := diamond.AddTask("Join", "lib", 2, 0)
	for _, e := range []struct {
		from     TaskID
		fromPort int
		to       TaskID
		toPort   int
	}{{d0, 0, d1, 0}, {d0, 1, d2, 0}, {d1, 0, d3, 0}, {d2, 0, d3, 1}} {
		if err := diamond.Connect(e.from, e.fromPort, e.to, e.toPort, 100); err != nil {
			f.Fatal(err)
		}
	}
	if err := diamond.SetProps(d1, Properties{Mode: Parallel, Nodes: 2}); err != nil {
		f.Fatal(err)
	}
	diamond.Owner = "user_k"
	diamond.InputSizeBytes = 4096

	fan := NewGraph("fan")
	root := fan.AddTask("Root", "lib", 0, 4)
	for i := 0; i < 4; i++ {
		leaf := fan.AddTask("Leaf", "lib", 1, 0)
		if err := fan.Connect(root, i, leaf, 0, int64(i)*64); err != nil {
			f.Fatal(err)
		}
	}

	for _, g := range []*Graph{chain, diamond, fan} {
		data, err := g.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	seeds = append(seeds,
		[]byte(`{}`),
		[]byte(`{"name":"x","tasks":[]}`),
		[]byte(`{"name":"x","tasks":[{"id":7,"name":"A"}]}`),
		[]byte(`{"name":"c","tasks":[{"id":0,"name":"A","in_ports":1,"out_ports":1}],"edges":[{"from":0,"to":0}]}`),
		[]byte(`{"name":"neg","tasks":[{"id":0,"name":"A","in_ports":-1,"out_ports":1}]}`),
		[]byte(`{"tasks":[{"id":0,"name":"A","props":{"mode":1,"nodes":0}}]}`),
		[]byte(`{"name":"<a&b>","owner":"o\u2028","tasks":[{"id":0,"name":"A\"","library":"l","in_ports":1,"out_ports":2,"props":{"mode":1,"nodes":3,"machine_type":"SUN <Solaris>","host":"h","inputs":[{"path":"in.dat","size_bytes":9,"url":true}],"outputs":[{},{"dataflow":true}],"services":["io","<console>"],"args":{"n":"8","a":"","<k>":"&"}}}],"edges":[],"input_size_bytes":5}`),
		[]byte(`{"name":"nil lists","tasks":[{"id":0,"name":"A","props":{"inputs":[],"services":[],"args":{}}}],"edges":null}`),
		[]byte(`not json at all`),
		[]byte(`[1,2,3]`),
	)
	return seeds
}

// FuzzDecodeGraph checks that DecodeJSON never panics on arbitrary
// input, and that every graph it does accept survives an encode/decode
// round trip unchanged in structure — and, through AppendJSON, unchanged
// altogether, in the bytes json.Marshal would have written.
func FuzzDecodeGraph(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeJSON(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted graphs must be internally consistent enough for the
		// traversal helpers the scheduler relies on.
		if _, err := g.TopoSort(); err != nil {
			t.Fatalf("accepted graph fails TopoSort: %v", err)
		}
		enc, err := g.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted graph fails to encode: %v", err)
		}
		g2, err := DecodeJSON(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v\nencoded: %s", err, enc)
		}
		if g2.Name != g.Name || len(g2.Tasks) != len(g.Tasks) || len(g2.Edges) != len(g.Edges) {
			t.Fatalf("round trip changed structure: %d/%d tasks, %d/%d edges",
				len(g.Tasks), len(g2.Tasks), len(g.Edges), len(g2.Edges))
		}
		enc2, err := g2.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not stable:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
		want, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		got := g.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from json.Marshal:\ngot:  %s\nwant: %s", got, want)
		}
		g3, err := DecodeJSON(got)
		if err != nil {
			t.Fatalf("AppendJSON output does not decode: %v\n%s", err, got)
		}
		// omitempty drops an empty list or map, which then decodes as nil:
		// the one difference a round trip is allowed.
		for _, task := range g.Tasks {
			p := &task.Props
			if len(p.Inputs) == 0 {
				p.Inputs = nil
			}
			if len(p.Outputs) == 0 {
				p.Outputs = nil
			}
			if len(p.Services) == 0 {
				p.Services = nil
			}
			if len(p.Args) == 0 {
				p.Args = nil
			}
		}
		// The memoized analysis is no part of the graph's value.
		g.shape.Store(nil)
		g3.shape.Store(nil)
		if !reflect.DeepEqual(g3, g) {
			t.Fatalf("AppendJSON round trip changed the graph:\n%s", got)
		}
	})
}
