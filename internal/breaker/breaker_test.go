package breaker

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for driving the state machine
// deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(0, 0)} }
func newSet(c *fakeClock, cfg Config) *Set   { cfg.Now = c.now; return New(cfg) }
func requireState(t *testing.T, s *Set, host string, want State) {
	t.Helper()
	if got := s.State(host); got != want {
		t.Fatalf("state(%s) = %v, want %v", host, got, want)
	}
}

func TestClosedUntilMinSamples(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 4})
	// Three straight failures: rate 1.0 but below the sample floor.
	for i := 0; i < 3; i++ {
		s.ReportFailure("h")
	}
	requireState(t, s, "h", Closed)
	if !s.Allow("h") {
		t.Fatal("closed breaker must allow placements")
	}
	// The fourth failure meets MinSamples at rate 1.0 >= 0.5: open.
	s.ReportFailure("h")
	requireState(t, s, "h", Open)
	if s.Allow("h") {
		t.Fatal("open breaker must reject placements")
	}
}

func TestRateBelowThresholdStaysClosed(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{FailureThreshold: 0.5, MinSamples: 4})
	// 2 failures in 10 samples: rate 0.3 after the final failure.
	for i := 0; i < 7; i++ {
		s.ReportSuccess("h")
	}
	s.ReportFailure("h")
	s.ReportFailure("h")
	s.ReportFailure("h")
	requireState(t, s, "h", Closed)
}

func TestOpenToHalfOpenAfterTimeout(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 2, OpenTimeout: 10 * time.Second})
	s.ReportFailure("h")
	s.ReportFailure("h")
	requireState(t, s, "h", Open)
	// One tick short of the timeout: still quarantined.
	clk.advance(10*time.Second - time.Millisecond)
	requireState(t, s, "h", Open)
	clk.advance(time.Millisecond)
	requireState(t, s, "h", HalfOpen)
	if !s.Allow("h") {
		t.Fatal("half-open breaker must admit probe traffic")
	}
}

func TestHalfOpenProbeSuccessesClose(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 2})
	s.ReportFailure("h")
	s.ReportFailure("h")
	clk.advance(time.Second)
	requireState(t, s, "h", HalfOpen)
	s.ReportSuccess("h")
	requireState(t, s, "h", HalfOpen) // one probe is not enough
	s.ReportSuccess("h")
	requireState(t, s, "h", Closed)
	// The close wiped the failure history: one new failure (below
	// MinSamples with the re-seeded successes) must not re-open.
	s.ReportFailure("h")
	requireState(t, s, "h", Closed)
}

func TestHalfOpenFailureReopens(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 2, OpenTimeout: time.Second})
	s.ReportFailure("h")
	s.ReportFailure("h")
	clk.advance(time.Second)
	requireState(t, s, "h", HalfOpen)
	s.ReportFailure("h")
	requireState(t, s, "h", Open)
	// The quarantine restarted in full from the failed probe.
	clk.advance(time.Second - time.Millisecond)
	requireState(t, s, "h", Open)
	clk.advance(time.Millisecond)
	requireState(t, s, "h", HalfOpen)
}

func TestWindowAgesOutFailures(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{Window: 6 * time.Second, Buckets: 6, MinSamples: 4})
	s.ReportFailure("h")
	s.ReportFailure("h")
	s.ReportFailure("h")
	// A full window later the old failures are gone: the next failure is
	// 1 sample, below MinSamples, so the breaker stays closed.
	clk.advance(7 * time.Second)
	s.ReportFailure("h")
	requireState(t, s, "h", Closed)
	if r, n := s.hosts["h"].rate(); n != 1 || r != 1.0 {
		t.Fatalf("windowed rate = %.2f over %d samples, want 1.00 over 1", r, n)
	}
}

func TestExcludedListsOpenHostsSorted(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 2})
	s.ReportFailure("b")
	s.ReportFailure("b")
	s.ReportFailure("a")
	s.ReportFailure("a")
	s.ReportSuccess("c")
	got := s.Excluded()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Excluded() = %v, want [a b]", got)
	}
}

func TestUnknownHostIsClosed(t *testing.T) {
	s := newSet(newClock(), Config{})
	requireState(t, s, "never-seen", Closed)
	if !s.Allow("never-seen") {
		t.Fatal("unknown host must be allowed")
	}
}

func TestTransitionsObserved(t *testing.T) {
	clk := newClock()
	type tr struct {
		host     string
		from, to State
	}
	var seen []tr
	cfg := Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 1,
		OnTransition: func(h string, from, to State) { seen = append(seen, tr{h, from, to}) }}
	s := newSet(clk, cfg)
	s.ReportFailure("h")
	s.ReportFailure("h") // closed -> open
	clk.advance(time.Second)
	s.ReportSuccess("h") // open -> half-open (lazy) -> closed
	want := []tr{{"h", Closed, Open}, {"h", Open, HalfOpen}, {"h", HalfOpen, Closed}}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestSnapshotCountsOpens(t *testing.T) {
	clk := newClock()
	s := newSet(clk, Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 1})
	// Two full open cycles.
	for cycle := 0; cycle < 2; cycle++ {
		s.ReportFailure("h")
		s.ReportFailure("h")
		clk.advance(time.Second)
		s.ReportSuccess("h")
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap[0].Host != "h" {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[0].Opens != 2 {
		t.Fatalf("opens = %d, want 2", snap[0].Opens)
	}
	if snap[0].State != "closed" {
		t.Fatalf("state = %q, want closed", snap[0].State)
	}
}
