package services

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is one sample in a visualization series.
type Point struct {
	T time.Duration // offset from series start
	V float64
}

// Metrics is the visualization service's backing store: named time
// series of application performance and workload measurements.
type Metrics struct {
	mu     sync.Mutex
	series map[string][]Point
}

// NewMetrics returns an empty store.
func NewMetrics() *Metrics {
	return &Metrics{series: make(map[string][]Point)}
}

// seriesWindow is how many of its newest points a series keeps: the run
// path adds one per task run, job transition and monitor sample, for the
// life of the server.
const seriesWindow = 4096

// Add appends a sample to the named series, dropping the oldest once
// the series is over seriesWindow.
func (m *Metrics) Add(name string, t time.Duration, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := append(m.series[name], Point{T: t, V: v})
	if len(s) >= 2*seriesWindow {
		// One slide per seriesWindow adds, not a shift on every add.
		s = s[:copy(s, s[len(s)-seriesWindow:])]
	}
	m.series[name] = s
}

// Series returns a copy of the named series — its newest seriesWindow
// points at most — in insertion order.
func (m *Metrics) Series(name string) []Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.series[name]
	if len(s) > seriesWindow {
		s = s[len(s)-seriesWindow:]
	}
	return append([]Point(nil), s...)
}

// Names lists the stored series, sorted.
func (m *Metrics) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.series))
	for n := range m.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Chart renders the named series as an ASCII line chart of the given
// width and height — the terminal stand-in for the paper's workload
// visualization windows.
func (m *Metrics) Chart(name string, width, height int) string {
	pts := m.Series(name)
	if len(pts) == 0 {
		return fmt.Sprintf("%s: (no data)\n", name)
	}
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	lo, hi := pts[0].V, pts[0].V
	for _, p := range pts {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	if hi == lo {
		hi = lo + 1
	}
	// Resample onto the grid by bucketing points into columns. Points
	// need not be time-ordered (several recorders may share a series).
	cols := make([]float64, width)
	filled := make([]bool, width)
	var tMax time.Duration
	for _, p := range pts {
		if p.T > tMax {
			tMax = p.T
		}
	}
	if tMax == 0 {
		tMax = 1
	}
	for _, p := range pts {
		c := int(float64(p.T) / float64(tMax) * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		cols[c] = p.V // last write wins within a bucket
		filled[c] = true
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		if !filled[c] {
			continue
		}
		r := int((cols[c] - lo) / (hi - lo) * float64(height-1))
		grid[height-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.3g .. %.3g]\n", name, lo, hi)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	return b.String()
}
