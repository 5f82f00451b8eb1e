package trace

import (
	"strings"
	"testing"
	"time"

	"vdce/internal/exec"
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
