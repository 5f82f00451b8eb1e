package trace

import (
	"strings"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/netmodel"
	"vdce/internal/sim"
)

func TestGanttBasic(t *testing.T) {
	spans := []Span{
		{Host: "h1", Label: "0", Start: 0, End: time.Second},
		{Host: "h1", Label: "1", Start: time.Second, End: 2 * time.Second},
		{Host: "h2", Label: "2", Start: 0, End: 2 * time.Second},
	}
	out := Gantt(spans, 40)
	if !strings.Contains(out, "h1") || !strings.Contains(out, "h2") {
		t.Fatalf("missing hosts:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "0") {
		t.Fatalf("missing bars/labels:\n%s", out)
	}
	// h2's row must be fully busy (no dots between the bars).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "h2") {
			if strings.Contains(line, ".") {
				t.Fatalf("h2 shows idle time: %s", line)
			}
		}
	}
	if got := Gantt(nil, 40); !strings.Contains(got, "no spans") {
		t.Fatalf("empty gantt = %q", got)
	}
}

func TestFromSim(t *testing.T) {
	g := afg.NewGraph("x")
	a := g.AddTask("A", "l", 0, 1)
	b := g.AddTask("B", "l", 1, 0)
	if err := g.Connect(a, 0, b, 0, 0); err != nil {
		t.Fatal(err)
	}
	net, err := netmodel.New([]string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: "x", Entries: []core.Placement{
		{Task: a, TaskName: "A", Site: "s", Hosts: []string{"h1"}, Predicted: time.Second},
		{Task: b, TaskName: "B", Site: "s", Hosts: []string{"h1", "h2"}, Predicted: time.Second},
	}}
	// Make B parallel so its two hosts are legal.
	if err := g.SetProps(b, afg.Properties{Mode: afg.Parallel, Nodes: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(g, table, net)
	if err != nil {
		t.Fatal(err)
	}
	spans := FromSim(g, table, res)
	// A on h1, B on h1 and h2 -> 3 spans.
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	chart := Gantt(spans, 30)
	if !strings.Contains(chart, "h2") {
		t.Fatalf("parallel host missing:\n%s", chart)
	}
}

func TestFromRuns(t *testing.T) {
	t0 := time.Now()
	runs := []exec.TaskRun{
		{Task: 0, Host: "h1", Start: t0, End: t0.Add(time.Second)},
		{Task: 1, Host: "h2", Start: t0.Add(time.Second), End: t0.Add(2 * time.Second), Terminated: true},
	}
	spans := FromRuns(runs)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0].Start != 0 {
		t.Fatalf("spans not rebased: %v", spans[0])
	}
	if spans[1].Label != "1x" {
		t.Fatalf("terminated run not marked: %q", spans[1].Label)
	}
	if FromRuns(nil) != nil {
		t.Fatal("empty runs should be nil")
	}
}
