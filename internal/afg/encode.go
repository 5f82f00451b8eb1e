package afg

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vdce/internal/jsonw"
)

// MarshalJSON-compatible encode/decode helpers. Graphs serialize to plain
// JSON (the editor's wire format) and to GraphViz DOT (for rendering
// Fig. 1-style pictures).

// EncodeJSON returns the graph as indented JSON.
func (g *Graph) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// AppendJSON appends the graph as compact JSON, byte for byte what
// json.Marshal(g) renders from the struct tags (nil Tasks or Edges as
// null included) without reflecting over them: the durable store writes
// a graph with every submission and finds a repeated one by these bytes.
func (g *Graph) AppendJSON(dst []byte) []byte {
	dst = jsonw.AppendString(append(dst, `{"name":`...), g.Name)
	dst = jsonw.AppendStringField(dst, `"owner":`, g.Owner)
	dst = append(dst, `,"tasks":`...)
	if g.Tasks == nil {
		dst = append(dst, "null"...)
	} else {
		dst = jsonw.AppendList(dst, g.Tasks, appendTask)
	}
	dst = append(dst, `,"edges":`...)
	if g.Edges == nil {
		dst = append(dst, "null"...)
	} else {
		dst = jsonw.AppendList(dst, g.Edges, appendEdge)
	}
	dst = jsonw.AppendIntField(dst, `"input_size_bytes":`, g.InputSizeBytes)
	return append(dst, '}')
}

func appendTask(dst []byte, t *Task) []byte {
	if t == nil {
		return append(dst, "null"...)
	}
	dst = strconv.AppendInt(append(dst, `{"id":`...), int64(t.ID), 10)
	dst = jsonw.AppendString(append(dst, `,"name":`...), t.Name)
	dst = jsonw.AppendStringField(dst, `"library":`, t.Library)
	dst = strconv.AppendInt(append(dst, `,"in_ports":`...), int64(t.InPorts), 10)
	dst = strconv.AppendInt(append(dst, `,"out_ports":`...), int64(t.OutPorts), 10)
	p := &t.Props
	dst = strconv.AppendInt(append(dst, `,"props":{"mode":`...), int64(p.Mode), 10)
	dst = strconv.AppendInt(append(dst, `,"nodes":`...), int64(p.Nodes), 10)
	dst = jsonw.AppendStringField(dst, `"machine_type":`, p.MachineType)
	dst = jsonw.AppendStringField(dst, `"host":`, p.Host)
	if len(p.Inputs) > 0 {
		dst = jsonw.AppendList(append(dst, `,"inputs":`...), p.Inputs, appendFileSpec)
	}
	if len(p.Outputs) > 0 {
		dst = jsonw.AppendList(append(dst, `,"outputs":`...), p.Outputs, appendFileSpec)
	}
	if len(p.Services) > 0 {
		dst = jsonw.AppendList(append(dst, `,"services":`...), p.Services, jsonw.AppendString)
	}
	if len(p.Args) > 0 {
		dst = jsonw.AppendMap(append(dst, `,"args":`...), p.Args, jsonw.AppendString)
	}
	return append(dst, '}', '}')
}

func appendFileSpec(dst []byte, f FileSpec) []byte {
	dst = append(dst, '{')
	dst = jsonw.AppendStringField(dst, `"path":`, f.Path)
	dst = jsonw.AppendIntField(dst, `"size_bytes":`, f.SizeBytes)
	dst = jsonw.AppendTrueField(dst, `"dataflow":`, f.Dataflow)
	dst = jsonw.AppendTrueField(dst, `"url":`, f.URL)
	return append(dst, '}')
}

func appendEdge(dst []byte, e Edge) []byte {
	dst = strconv.AppendInt(append(dst, `{"from":`...), int64(e.From), 10)
	dst = strconv.AppendInt(append(dst, `,"from_port":`...), int64(e.FromPort), 10)
	dst = strconv.AppendInt(append(dst, `,"to":`...), int64(e.To), 10)
	dst = strconv.AppendInt(append(dst, `,"to_port":`...), int64(e.ToPort), 10)
	dst = jsonw.AppendIntField(dst, `"size_bytes":`, e.SizeBytes)
	return append(dst, '}')
}

// DecodeJSON parses a graph from JSON and validates it.
func DecodeJSON(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("afg: decode: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// DOT renders the graph in GraphViz DOT format. Parallel tasks are drawn
// as doubled boxes annotated with their node counts, matching how Fig. 1
// distinguishes LU_Decomposition (parallel, 2 nodes) from the sequential
// tasks.
func (g *Graph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.Name)
	b.WriteString("  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.Tasks {
		label := t.Name
		if t.Props.Mode == Parallel {
			label = fmt.Sprintf("%s\\n(parallel x%d)", t.Name, t.Props.Nodes)
			fmt.Fprintf(&b, "  t%d [label=\"%s\", peripheries=2];\n", t.ID, label)
		} else {
			fmt.Fprintf(&b, "  t%d [label=\"%s\"];\n", t.ID, label)
		}
	}
	for _, e := range g.Edges {
		if s := g.EdgeSize(e); s > 0 {
			fmt.Fprintf(&b, "  t%d -> t%d [label=\"%dB\"];\n", e.From, e.To, s)
		} else {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary returns a one-line-per-task textual description of the graph,
// used by the CLI tools and the E1 reproduction output.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Application %q: %d tasks, %d edges\n", g.Name, len(g.Tasks), len(g.Edges))
	for _, t := range g.Tasks {
		parents := g.Parents(t.ID)
		ps := make([]string, len(parents))
		for i, p := range parents {
			ps[i] = g.Tasks[p].Name
		}
		sort.Strings(ps)
		from := "entry"
		if len(ps) > 0 {
			from = "after " + strings.Join(ps, ", ")
		}
		fmt.Fprintf(&b, "  [%2d] %-24s %-12s x%d  (%s)\n", t.ID, t.Name, t.Props.Mode, t.Props.Nodes, from)
	}
	return b.String()
}
