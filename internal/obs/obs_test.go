package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact Prometheus text rendering of a
// registry holding one of each family kind — HELP/TYPE headers, label
// quoting, cumulative histogram buckets with the implicit +Inf, _sum
// and _count, and Func-family sampling — so the scrape format cannot
// drift without this test noticing.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	sheds := r.Counter("vdce_sheds_total", "Submissions shed at admission.", "reason")
	sheds.With("queue-full").Add(3)
	sheds.With("deadline-infeasible").Inc()
	r.GaugeFunc("vdce_queue_depth", "Jobs waiting in admission.", nil,
		func(emit func(v float64, labelVals ...string)) { emit(7) })
	lat := r.Histogram("vdce_wait_seconds", "Submit wait.", []float64{0.01, 0.1, 1})
	h := lat.With()
	h.Observe(0.005) // le=0.01
	h.Observe(0.05)  // le=0.1
	h.Observe(0.05)  // le=0.1
	h.Observe(5)     // +Inf
	r.GaugeFunc("vdce_breaker_hosts", "Hosts per breaker state.", []string{"state"},
		func(emit func(v float64, labelVals ...string)) {
			emit(2, "open")
			emit(6, "closed")
		})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Body)

	want := `# HELP vdce_sheds_total Submissions shed at admission.
# TYPE vdce_sheds_total counter
vdce_sheds_total{reason="queue-full"} 3
vdce_sheds_total{reason="deadline-infeasible"} 1
# HELP vdce_queue_depth Jobs waiting in admission.
# TYPE vdce_queue_depth gauge
vdce_queue_depth 7
# HELP vdce_wait_seconds Submit wait.
# TYPE vdce_wait_seconds histogram
vdce_wait_seconds_bucket{le="0.01"} 1
vdce_wait_seconds_bucket{le="0.1"} 3
vdce_wait_seconds_bucket{le="1"} 3
vdce_wait_seconds_bucket{le="+Inf"} 4
vdce_wait_seconds_sum 5.105
vdce_wait_seconds_count 4
# HELP vdce_breaker_hosts Hosts per breaker state.
# TYPE vdce_breaker_hosts gauge
vdce_breaker_hosts{state="closed"} 6
vdce_breaker_hosts{state="open"} 2
`
	if string(body) != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestHistogramBucketBoundaries pins the le contract: an observation
// exactly equal to an upper bound lands in that bucket (le is
// inclusive), one epsilon above it spills to the next, and anything
// beyond the last bound lands only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b", "", []float64{1, 2, 4}).With()
	h.Observe(1)                    // exactly on the first bound → bucket le=1
	h.Observe(math.Nextafter(1, 2)) // just above → le=2
	h.Observe(2)                    // on the second bound → le=2
	h.Observe(4)                    // last finite bound → le=4
	h.Observe(4.0001)               // past every bound → +Inf only
	counts := h.s.counts
	got := []uint64{counts[0].Load(), counts[1].Load(), counts[2].Load(), counts[3].Load()}
	want := []uint64{1, 2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if s := h.Sum(); math.Abs(s-12.0001) > 1e-9 {
		t.Fatalf("Sum = %g, want 12.0001", s)
	}
}

// TestSeriesIdentityAndValue pins the wiring contract: With on the
// same label tuple returns the same underlying series, Vec.Value reads
// without materializing a series, and re-registering a family returns
// the existing one.
func TestSeriesIdentityAndValue(t *testing.T) {
	r := NewRegistry()
	v := r.Counter("c", "", "who")
	a1, a2 := v.With("a"), v.With("a")
	a1.Add(2)
	a2.Inc()
	if got := v.Value("a"); got != 3 {
		t.Fatalf("Value(a) = %g, want 3", got)
	}
	if got := v.Value("ghost"); got != 0 {
		t.Fatalf("Value(ghost) = %g, want 0", got)
	}
	if r.Counter("c", "", "who").With("a").Value() != 3 {
		t.Fatal("re-registered family lost its series")
	}
	// Counters refuse to go backwards.
	a1.Add(-5)
	if a1.Value() != 3 {
		t.Fatalf("counter moved backwards: %g", a1.Value())
	}
}

// TestConcurrentRecording hammers one counter and one histogram
// from many goroutines (run under -race in CI) and checks the totals
// survive without loss.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "").With()
	h := r.Histogram("h", "", []float64{0.5}).With()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %g, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count(), workers*per)
	}
}

// TestEscapeLabel pins the label escaping rules.
func TestEscapeLabel(t *testing.T) {
	if escapeLabel("a\"b\\c\nd") != `a\"b\\c\nd` {
		t.Fatalf("escapeLabel = %q", escapeLabel("a\"b\\c\nd"))
	}
}
