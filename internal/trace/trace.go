// Package trace renders execution timelines — text Gantt charts of real
// runs, one row per host: the visualization service's "application
// performance" view, as examples/c3i and examples/multisite print it.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vdce/internal/exec"
)

// Span is one task occupying one host for an interval.
type Span struct {
	Host  string
	Label string
	Start time.Duration
	End   time.Duration
}

// FromRuns converts real execution runs into spans relative to the
// earliest start.
func FromRuns(runs []exec.TaskRun) []Span {
	if len(runs) == 0 {
		return nil
	}
	t0 := runs[0].Start
	for _, r := range runs {
		if r.Start.Before(t0) {
			t0 = r.Start
		}
	}
	var out []Span
	for _, r := range runs {
		label := fmt.Sprintf("%d", r.Task)
		if r.Terminated {
			label += "x"
		}
		out = append(out, Span{
			Host:  r.Host,
			Label: label,
			Start: r.Start.Sub(t0),
			End:   r.End.Sub(t0),
		})
	}
	return out
}

// Gantt renders the spans as an ASCII chart of the given width. Hosts
// are rows (sorted); each span paints its task label across its
// interval; '.' marks idle time.
func Gantt(spans []Span, width int) string {
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if width < 20 {
		width = 20
	}
	var makespan time.Duration
	hostsSet := make(map[string]bool)
	for _, s := range spans {
		if s.End > makespan {
			makespan = s.End
		}
		hostsSet[s.Host] = true
	}
	if makespan <= 0 {
		makespan = 1
	}
	hosts := make([]string, 0, len(hostsSet))
	nameW := 0
	for h := range hostsSet {
		hosts = append(hosts, h)
		if len(h) > nameW {
			nameW = len(h)
		}
	}
	sort.Strings(hosts)

	col := func(t time.Duration) int {
		c := int(float64(t) / float64(makespan) * float64(width))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Gantt (makespan %v, %d hosts)\n", makespan, len(hosts))
	for _, h := range hosts {
		row := []byte(strings.Repeat(".", width))
		for _, s := range spans {
			if s.Host != h {
				continue
			}
			lo, hi := col(s.Start), col(s.End)
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			seg := strings.Repeat("#", hi-lo)
			// Stamp the label into the left edge of the segment.
			label := s.Label
			if len(label) > len(seg) {
				label = label[:len(seg)]
			}
			copy(row[lo:hi], seg)
			copy(row[lo:lo+len(label)], label)
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, h, row)
	}
	return b.String()
}
