// Package obs is the repo's pure-stdlib metrics substrate: atomic
// counters, scrape-time gauges, and fixed-bucket histograms with labels,
// collected into a Registry that renders Prometheus text exposition
// format. It exists so every subsystem (admission, scheduler, exec,
// breakers, WAL, broker) reports through one shared surface instead of
// the bespoke per-package tallies that accreted through PR 8 — and so
// HTTP status views can read the same series /metrics exports, making
// disagreement structurally impossible.
//
// Hot-path discipline: recording is lock-free after the series handle
// is resolved. Callers resolve label instances once at wiring time
// (reg.Counter(...).With("queue-full")) and keep the *Counter /
// *Histogram pointer; Inc/Add/Observe are then a few atomic ops with
// zero allocations, cheap enough for the WAL append path and the
// admission heap. The registry mutex is only taken when a new series
// materializes or during collection.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates the exposition TYPE line.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family is one named metric with a fixed label-key schema and any
// number of label-value series.
type family struct {
	name    string
	help    string
	kind    kind
	keys    []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series []*series
	bySig  map[string]*series

	// collect, when non-nil, produces the family's samples at scrape
	// time instead of from stored series (Func families).
	collect CollectFunc
}

// series is one label-value combination of a family.
type series struct {
	vals []string

	// counter payload: a monotonically increased float64 bit pattern.
	bits atomic.Uint64

	// histogram payload (nil for counters): counts[i] tallies
	// observations <= buckets[i]; counts[len] is the +Inf bucket.
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-added
	count  atomic.Uint64
}

// CollectFunc emits samples for a Func family at scrape time. The
// callback must pass exactly as many label values as the family has
// label keys.
type CollectFunc func(emit func(value float64, labelVals ...string))

func (r *Registry) family(name, help string, k kind, keys []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("obs: metric %s re-registered with different schema", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, keys: keys, buckets: buckets,
		bySig: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns the existing) counter family. Resolve
// concrete series with With; for an unlabeled counter call With() once
// and keep the handle.
func (r *Registry) Counter(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labelKeys, nil)}
}

// Histogram registers a fixed-bucket histogram family. Buckets are
// upper bounds in ascending order; an implicit +Inf bucket is always
// appended. The slice is captured; do not mutate it afterwards.
func (r *Registry) Histogram(name, help string, buckets []float64, labelKeys ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly ascending: " + name)
		}
	}
	return &HistogramVec{r.family(name, help, kindHistogram, labelKeys, buckets)}
}

// CounterFunc registers a counter family whose samples come from fn at
// scrape time — the bridge for subsystems that already keep their own
// monotone tallies (retry gates, rank caches) without double-counting.
func (r *Registry) CounterFunc(name, help string, labelKeys []string, fn CollectFunc) {
	f := r.family(name, help, kindCounter, labelKeys, nil)
	f.collect = fn
}

// GaugeFunc registers a gauge family sampled from fn at scrape time —
// for instantaneous values a subsystem can answer cheaply on demand
// (queue depth, subscriber count, per-state breaker census).
func (r *Registry) GaugeFunc(name, help string, labelKeys []string, fn CollectFunc) {
	f := r.family(name, help, kindGauge, labelKeys, nil)
	f.collect = fn
}

// sig builds the lookup key for a label-value tuple. Label values never
// legitimately contain \xff in this codebase; the separator keeps
// ("a","bc") distinct from ("ab","c").
func sig(vals []string) string {
	if len(vals) == 0 {
		return ""
	}
	if len(vals) == 1 {
		return vals[0]
	}
	return strings.Join(vals, "\xff")
}

func (f *family) with(vals []string) *series {
	if len(vals) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.keys), len(vals)))
	}
	key := sig(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.bySig[key]; ok {
		return s
	}
	s := &series{vals: append([]string(nil), vals...)}
	if f.kind == kindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.bySig[key] = s
	f.series = append(f.series, s)
	return s
}

// CounterVec is a counter family; With resolves one series.
type CounterVec struct{ f *family }

// With returns the series for the given label values, creating it on
// first use. Resolve once at wiring time, not on the hot path.
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{v.f.with(labelVals)}
}

// Value reads the current value for a label tuple without creating the
// series; absent series read as 0.
func (v *CounterVec) Value(labelVals ...string) float64 {
	v.f.mu.Lock()
	s, ok := v.f.bySig[sig(labelVals)]
	v.f.mu.Unlock()
	if !ok {
		return 0
	}
	return math.Float64frombits(s.bits.Load())
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored
// (counters are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloatBits(&c.s.bits, v)
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// HistogramVec is a histogram family; With resolves one series.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{s: v.f.with(labelVals), buckets: v.f.buckets}
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample: a linear scan over the (small, fixed)
// bucket table plus three atomic ops — no locks, no allocations.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.s.counts[i].Add(1)
	addFloatBits(&h.s.sum, v)
	h.s.count.Add(1)
}

// Count reports how many samples have been observed.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sum.Load()) }

// addFloatBits CAS-adds a float64 delta onto a bit-pattern cell.
func addFloatBits(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		if cell.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// DefBuckets covers the pipeline's latency range, 100µs to 10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// WALBuckets resolves the group-committed append path, 100ns to 100ms.
var WALBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 5e-6, 2.5e-5, 1e-4, 1e-3, 1e-2, 1e-1,
}

// SizeBuckets is a powers-of-two scale for batch/record counts.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Total sums every series of the named family across its label values:
// counter and gauge families sum their values (Func families sample
// their collector), histogram families sum observation counts. Unknown
// names return 0. This is the report-generation read path (chaos
// summaries, tests), not a hot-path API.
func (r *Registry) Total(name string) float64 {
	r.mu.Lock()
	f, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	var total float64
	if f.collect != nil {
		f.collect(func(v float64, _ ...string) { total += v })
		return total
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.series {
		if f.kind == kindHistogram {
			total += float64(s.count.Load())
		} else {
			total += math.Float64frombits(s.bits.Load())
		}
	}
	return total
}

// Handler serves the registry as Prometheus text exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.WriteText(&sb)
		_, _ = w.Write([]byte(sb.String()))
	})
}

// WriteText renders every family in registration order: HELP and TYPE
// headers, then one line per series with labels sorted by first use.
func (r *Registry) WriteText(sb *strings.Builder) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
		if f.collect != nil {
			f.writeFunc(sb)
			continue
		}
		f.mu.Lock()
		ser := append([]*series(nil), f.series...)
		f.mu.Unlock()
		for _, s := range ser {
			if f.kind == kindHistogram {
				writeHistogram(sb, f, s)
				continue
			}
			sb.WriteString(f.name)
			writeLabels(sb, f.keys, s.vals, "", "")
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(math.Float64frombits(s.bits.Load())))
			sb.WriteByte('\n')
		}
	}
}

// writeFunc renders a Func family by sampling its collector. Samples
// are sorted by label signature for stable output.
func (f *family) writeFunc(sb *strings.Builder) {
	type sample struct {
		vals []string
		v    float64
	}
	var samples []sample
	f.collect(func(v float64, labelVals ...string) {
		if len(labelVals) != len(f.keys) {
			panic(fmt.Sprintf("obs: func metric %s emitted %d label values, want %d", f.name, len(labelVals), len(f.keys)))
		}
		samples = append(samples, sample{append([]string(nil), labelVals...), v})
	})
	sort.Slice(samples, func(i, j int) bool { return sig(samples[i].vals) < sig(samples[j].vals) })
	for _, s := range samples {
		sb.WriteString(f.name)
		writeLabels(sb, f.keys, s.vals, "", "")
		sb.WriteByte(' ')
		sb.WriteString(formatFloat(s.v))
		sb.WriteByte('\n')
	}
}

// writeHistogram renders the cumulative _bucket series, _sum and
// _count for one label tuple.
func writeHistogram(sb *strings.Builder, f *family, s *series) {
	var cum uint64
	for i, ub := range f.buckets {
		cum += s.counts[i].Load()
		sb.WriteString(f.name)
		sb.WriteString("_bucket")
		writeLabels(sb, f.keys, s.vals, "le", formatFloat(ub))
		fmt.Fprintf(sb, " %d\n", cum)
	}
	cum += s.counts[len(f.buckets)].Load()
	sb.WriteString(f.name)
	sb.WriteString("_bucket")
	writeLabels(sb, f.keys, s.vals, "le", "+Inf")
	fmt.Fprintf(sb, " %d\n", cum)
	sb.WriteString(f.name)
	sb.WriteString("_sum")
	writeLabels(sb, f.keys, s.vals, "", "")
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(math.Float64frombits(s.sum.Load())))
	sb.WriteByte('\n')
	sb.WriteString(f.name)
	sb.WriteString("_count")
	writeLabels(sb, f.keys, s.vals, "", "")
	fmt.Fprintf(sb, " %d\n", s.count.Load())
}

// writeLabels renders {k="v",...}, optionally with one extra pair
// (the histogram le bound), or nothing when there are no labels.
func writeLabels(sb *strings.Builder, keys, vals []string, extraKey, extraVal string) {
	if len(keys) == 0 && extraKey == "" {
		return
	}
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(vals[i]))
		sb.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraKey)
		sb.WriteString(`="`)
		sb.WriteString(extraVal)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// formatFloat renders a sample value: integers without an exponent,
// everything else in Go's shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
