package rate

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

// noAdvance marks a window step that adds without advancing first.
const noAdvance = -1

// TestWindow drives a 30 s window of six 5 s buckets, the failure
// detector's shape, on synthetic instants.
func TestWindow(t *testing.T) {
	type step struct {
		at        time.Duration // Advance to t0+at first, unless noAdvance
		reset     bool
		bad, good int
		wantBad   int // Rate after the step: bad outcomes of wantN
		wantN     int
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"FirstAdvanceAnchorsAndKeepsEarlierAdds", []step{
			{at: noAdvance, bad: 2, wantBad: 2, wantN: 2},
			{at: 0, good: 1, wantBad: 2, wantN: 3},
			// The anchor is the first Advance, not the first Add: the
			// earlier outcomes share its bucket and age out with it.
			{at: 30*time.Second - time.Millisecond, wantBad: 2, wantN: 3},
			{at: 30 * time.Second, wantBad: 0, wantN: 0},
		}},
		{"AgesAcrossBuckets", []step{
			{at: 0, bad: 1, wantBad: 1, wantN: 1},
			{at: 5 * time.Second, good: 2, wantBad: 1, wantN: 3},
			{at: 30*time.Second - time.Millisecond, wantBad: 1, wantN: 3},
			{at: 30 * time.Second, wantBad: 0, wantN: 2}, // the first bucket left
			{at: 35 * time.Second, wantBad: 0, wantN: 0},
		}},
		{"GapLongerThanTheSpanReanchorsAtNow", []step{
			{at: 0, bad: 3, wantBad: 3, wantN: 3},
			{at: 62500 * time.Millisecond, bad: 1, wantBad: 1, wantN: 1},
			// Anchored at 62.5 s, not on the old 5 s grid (60 s): the new
			// bucket lives a whole span from there.
			{at: 92500*time.Millisecond - time.Millisecond, wantBad: 1, wantN: 1},
			{at: 92500 * time.Millisecond, wantBad: 0, wantN: 0},
		}},
		{"ResetKeepsTheBoundaries", []step{
			{at: 0, bad: 2, good: 1, wantBad: 2, wantN: 3},
			{at: 7 * time.Second, bad: 1, wantBad: 3, wantN: 4},
			{at: 7 * time.Second, reset: true, wantBad: 0, wantN: 0},
			{at: 7 * time.Second, good: 1, wantBad: 0, wantN: 1},
			// The current bucket still starts at 5 s.
			{at: 35*time.Second - time.Millisecond, wantBad: 0, wantN: 1},
			{at: 35 * time.Second, wantBad: 0, wantN: 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(30*time.Second, 6)
			for i, s := range tc.steps {
				if s.at != noAdvance {
					w.Advance(t0.Add(s.at))
				}
				if s.reset {
					w.Reset()
				}
				for j := 0; j < s.bad; j++ {
					w.Add(true)
				}
				for j := 0; j < s.good; j++ {
					w.Add(false)
				}
				frac, n := w.Rate()
				want := 0.0
				if s.wantN > 0 {
					want = float64(s.wantBad) / float64(s.wantN)
				}
				if n != s.wantN || frac != want {
					t.Fatalf("step %d: Rate() = %.3f over %d, want %.3f over %d", i, frac, n, want, s.wantN)
				}
			}
		})
	}
}

// TestBucket drives the token bucket on synthetic instants.
func TestBucket(t *testing.T) {
	type step struct {
		at     time.Duration // the instant of a Take, from t0
		refund bool          // Refund instead of Take
		want   time.Duration // Take's wait
	}
	for _, tc := range []struct {
		name        string
		rate, burst float64
		steps       []step
	}{
		{"ZeroValueStartsFull", 1, 1, []step{
			{at: time.Hour, want: 0},
			{at: time.Hour, want: time.Second},
		}},
		{"BurstDrainsFree", 1, 3, []step{
			{want: 0}, {want: 0}, {want: 0},
			{want: time.Second},
		}},
		{"OverBudgetTakesWaitForTheirToken", 2, 2, []step{
			{want: 0}, {want: 0},
			{want: 500 * time.Millisecond},
			{want: time.Second},
			{want: 1500 * time.Millisecond},
		}},
		{"RefundRestoresTheBalance", 1, 1, []step{
			{want: 0},
			{want: time.Second},
			{refund: true},
			{want: time.Second}, // the refunded take left no debt
			{refund: true},
			{at: time.Second, want: 0},
		}},
		{"TimePaysTheDebtFirst", 2, 2, []step{
			{want: 0}, {want: 0},
			{want: 500 * time.Millisecond},
			{want: time.Second},
			{want: 1500 * time.Millisecond},
			// Two seconds refill four tokens onto a debt of three.
			{at: 2 * time.Second, want: 0},
			{at: 2 * time.Second, want: 500 * time.Millisecond},
			// A long idle refills only up to burst.
			{at: time.Hour, want: 0},
			{at: time.Hour, want: 0},
			{at: time.Hour, want: 500 * time.Millisecond},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b Bucket
			for i, s := range tc.steps {
				if s.refund {
					b.Refund()
					continue
				}
				if got := b.Take(t0.Add(s.at), tc.rate, tc.burst); got != s.want {
					t.Fatalf("step %d: Take = %v, want %v", i, got, s.want)
				}
			}
		})
	}
}
