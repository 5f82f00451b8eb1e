// Package afg models VDCE application flow graphs (AFGs): directed
// acyclic graphs whose nodes are library tasks with logical input/output
// ports and whose edges are dataflow connections. An AFG plus per-task
// properties is exactly what the paper's Application Editor produces and
// what the Application Scheduler consumes.
//
// A graph is analysed once: Graph.Shape makes one validated topological
// pass — the order, the children and edges out of each task, the edges
// into each task, the input port numbering — and keeps it on the graph,
// so admission, every scheduling round and the runtime's Data Manager
// read the same analysis. The kept analysis is checked against the
// graph's tasks and edges on every use and made afresh when they changed.
// Editing a graph while one of its jobs is admitted or running is still a
// data race: the memo makes a submission see an edit, not a concurrent
// one safe.
package afg

import (
	"fmt"
	"strings"
)

// TaskID identifies a task within one graph. IDs are assigned densely by
// Graph.AddTask starting at 0, which lets schedulers index by ID.
type TaskID int

// ComputationMode is the task property the editor exposes as
// "Computation Type".
type ComputationMode int

const (
	// Sequential tasks run on exactly one node.
	Sequential ComputationMode = iota
	// Parallel tasks run on Props.Nodes nodes within a single site.
	Parallel
)

// String implements fmt.Stringer using the paper's editor vocabulary.
func (m ComputationMode) String() string {
	switch m {
	case Sequential:
		return "<sequential>"
	case Parallel:
		return "<parallel>"
	default:
		return fmt.Sprintf("ComputationMode(%d)", int(m))
	}
}

// AnyMachine is the editor's "<any>" wildcard for machine preferences.
const AnyMachine = "<any>"

// FileSpec describes one input or output of a task. A Dataflow input is
// supplied by a parent task over a Data Manager channel rather than read
// from a file or URL.
type FileSpec struct {
	// Path is a file path or URL; empty for pure dataflow.
	Path string `json:"path,omitempty"`
	// SizeBytes is the (predicted or known) size used for transfer-time
	// estimation. Zero means unknown.
	SizeBytes int64 `json:"size_bytes,omitempty"`
	// Dataflow marks an input as produced by a parent task.
	Dataflow bool `json:"dataflow,omitempty"`
	// URL marks Path as a URL to be fetched by the I/O service.
	URL bool `json:"url,omitempty"`
}

// String renders the spec the way Fig. 1's task-properties windows do.
func (f FileSpec) String() string {
	if f.Dataflow && f.Path == "" {
		return "<dataflow>"
	}
	if f.Path == "" {
		return "<unset>"
	}
	if f.SizeBytes > 0 {
		return fmt.Sprintf("<%s, SIZE=%d>", f.Path, f.SizeBytes)
	}
	return fmt.Sprintf("<%s>", f.Path)
}

// Properties are the optional per-task preferences the user sets in the
// editor's task-properties popup (Fig. 1).
type Properties struct {
	// Mode selects sequential or parallel execution.
	Mode ComputationMode `json:"mode"`
	// Nodes is the number of processors for a Parallel task; ignored (and
	// normalized to 1) for Sequential tasks.
	Nodes int `json:"nodes"`
	// MachineType restricts scheduling to hosts of this architecture/OS
	// label, e.g. "SUN Solaris". AnyMachine (or empty) means no restriction.
	MachineType string `json:"machine_type,omitempty"`
	// Host pins the task to one specific host name. AnyMachine (or empty)
	// means no restriction.
	Host string `json:"host,omitempty"`
	// Inputs and Outputs follow the task's port order: Inputs[i] feeds
	// input port i, Outputs[i] is produced on output port i.
	Inputs  []FileSpec `json:"inputs,omitempty"`
	Outputs []FileSpec `json:"outputs,omitempty"`
	// Services the user requested for this task (I/O, console,
	// visualization), by service name.
	Services []string `json:"services,omitempty"`
	// Args are named arguments passed to the task executable (problem
	// size, seeds, thresholds). The editor exposes them in the
	// task-properties popup alongside the file entries.
	Args map[string]string `json:"args,omitempty"`
}

// Task is one node of an AFG.
type Task struct {
	ID TaskID `json:"id"`
	// Name is the task-library entry this node invokes, e.g.
	// "LU_Decomposition".
	Name string `json:"name"`
	// Library is the menu group the task came from, e.g. "matrix" or "c3i".
	Library string `json:"library,omitempty"`
	// InPorts and OutPorts are the logical port counts shown as markers on
	// the editor icon.
	InPorts  int `json:"in_ports"`
	OutPorts int `json:"out_ports"`
	// Props holds the user's preferences for this node.
	Props Properties `json:"props"`
}

// PropertiesWindow renders the task the way the paper's Fig. 1
// task-properties windows do, for the E1 reproduction.
func (t *Task) PropertiesWindow() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Task <%s>\n", t.Name)
	fmt.Fprintf(&b, "Computation Type: %s\n", t.Props.Mode)
	nodes := t.Props.Nodes
	if nodes < 1 {
		nodes = 1
	}
	fmt.Fprintf(&b, "Number of Nodes: %d\n", nodes)
	mt := t.Props.MachineType
	if mt == "" {
		mt = AnyMachine
	}
	fmt.Fprintf(&b, "Preferred Machine Type: <%s>\n", strings.Trim(mt, "<>"))
	h := t.Props.Host
	if h == "" {
		h = AnyMachine
	}
	fmt.Fprintf(&b, "Preferred Machine : <%s>\n", strings.Trim(h, "<>"))
	ins := make([]string, len(t.Props.Inputs))
	for i, f := range t.Props.Inputs {
		ins[i] = f.String()
	}
	fmt.Fprintf(&b, "Input: <%d> %s\n", len(ins), strings.Join(ins, ", "))
	outs := make([]string, len(t.Props.Outputs))
	for i, f := range t.Props.Outputs {
		outs[i] = f.String()
	}
	fmt.Fprintf(&b, "Output: <%d> %s\n", len(outs), strings.Join(outs, ", "))
	return b.String()
}
