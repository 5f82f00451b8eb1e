// Package rate holds the control plane's two rate algorithms: a sliding
// window of good and bad outcomes (the failure detector's quarantine
// evidence, the /readyz shed-rate gate) and a token bucket (the engine's
// retry budget, the per-owner API limit). Neither reads a clock: every
// method that ages state takes the instant from its caller, so a test
// drives them on synthetic time and production passes time.Now().
package rate

import "time"

// Window counts good and bad outcomes over a span split into equal
// buckets. Outcomes land in the current bucket; Advance ages out the
// buckets that fell out of the span. A window that has never advanced
// anchors its current bucket at its first Advance and keeps what was
// added before it.
type Window struct {
	step  time.Duration
	ring  []counts
	cur   int       // ring[cur] is the bucket starting at start
	start time.Time // zero until the first Advance
}

type counts struct{ bad, good int }

// NewWindow returns an empty window over span in n buckets.
func NewWindow(span time.Duration, n int) Window {
	return Window{step: span / time.Duration(n), ring: make([]counts, n)}
}

// Advance ages the window to now, emptying the buckets that fell out of
// the span. Once a whole span has elapsed every bucket is empty and the
// current one re-anchors at now rather than stepping through the gap.
func (w *Window) Advance(now time.Time) {
	if w.start.IsZero() {
		w.start = now
		return
	}
	steps := 0
	for ; steps < len(w.ring) && !now.Before(w.start.Add(w.step)); steps++ {
		w.cur = (w.cur + 1) % len(w.ring)
		w.ring[w.cur] = counts{}
		w.start = w.start.Add(w.step)
	}
	if steps == len(w.ring) {
		w.start = now
	}
}

// Add counts one outcome in the current bucket.
func (w *Window) Add(bad bool) {
	if bad {
		w.ring[w.cur].bad++
	} else {
		w.ring[w.cur].good++
	}
}

// Rate returns the fraction of bad outcomes in the window and how many
// outcomes it holds; an empty window reads 0, 0.
func (w *Window) Rate() (frac float64, n int) {
	var bad int
	for _, c := range w.ring {
		bad += c.bad
		n += c.bad + c.good
	}
	if n == 0 {
		return 0, 0
	}
	return float64(bad) / float64(n), n
}

// Reset forgets every outcome; the bucket boundaries stay where they are.
func (w *Window) Reset() { clear(w.ring) }

// Bucket is a token bucket whose balance may go below zero: a take past
// the balance reserves a future token, and refills pay that debt first.
// The refill rate and capacity are the caller's, passed to every call. A
// zero Bucket is full.
type Bucket struct {
	tokens float64
	last   time.Time // zero until the first Take
}

// Take refills the bucket to now at rate tokens a second, up to burst,
// debits one token and returns how long until the balance is back to
// zero: 0 while the balance covered the token.
func (b *Bucket) Take(now time.Time, rate, burst float64) time.Duration {
	if b.last.IsZero() {
		b.tokens, b.last = burst, now
	} else if dt := now.Sub(b.last); dt > 0 {
		b.tokens = min(burst, b.tokens+dt.Seconds()*rate)
		b.last = now
	}
	b.tokens--
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / rate * float64(time.Second))
}

// Refund returns the token the last Take debited.
func (b *Bucket) Refund() { b.tokens++ }

// Full reports whether the bucket would hold burst tokens at now, which
// makes it indistinguishable from a zero Bucket.
func (b *Bucket) Full(now time.Time, rate, burst float64) bool {
	return b.last.IsZero() || b.tokens+now.Sub(b.last).Seconds()*rate >= burst
}
