package exec

import (
	"testing"
	"time"
)

func TestBackoffDeterministicForSeed(t *testing.T) {
	mk := func() *retryGate {
		return newRetryGate(RetryConfig{BaseDelay: 100 * time.Millisecond, Seed: 7})
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 6; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
	}
}

func TestBackoffExponentialEnvelope(t *testing.T) {
	g := newRetryGate(RetryConfig{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: 1})
	// Attempt n's jittered delay lives in [d/2, d] for d = min(base*2^(n-1), max).
	want := []time.Duration{100, 200, 400, 800, 800, 800}
	for i, w := range want {
		d := w * time.Millisecond
		got := g.backoff(i + 1)
		if got < d/2 || got > d {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", i+1, got, d/2, d)
		}
	}
}

func TestBudgetParksOverBudgetRetries(t *testing.T) {
	now := time.Unix(0, 0)
	g := newRetryGate(RetryConfig{BudgetPerSecond: 2, BudgetBurst: 2, Seed: 1})
	// The burst drains free; every retry past it parks for its reserved
	// token — the i'th over-budget retry waits i/rate seconds.
	for i := 0; i < 2; i++ {
		if wait, parked := g.reserve(now); wait != 0 || parked {
			t.Fatalf("burst retry %d parked (wait %v)", i, wait)
		}
	}
	for i := 1; i <= 3; i++ {
		wait, parked := g.reserve(now)
		if !parked {
			t.Fatalf("over-budget retry %d not parked", i)
		}
		if want := time.Duration(i) * 500 * time.Millisecond; wait != want {
			t.Fatalf("over-budget retry %d wait = %v, want %v", i, wait, want)
		}
	}
	retries, parks := g.retries, g.parks
	if retries != 5 || parks != 3 {
		t.Fatalf("stats = %d retries / %d parks, want 5 / 3", retries, parks)
	}
	// Time passing refills the bucket; the reserved debt drains first.
	now = now.Add(2 * time.Second) // +4 tokens onto -3 -> 1
	if wait, parked := g.reserve(now); wait != 0 || parked {
		t.Fatalf("post-refill retry parked (wait %v)", wait)
	}
}

func TestUnlimitedBudgetNeverParks(t *testing.T) {
	g := newRetryGate(RetryConfig{Seed: 1})
	for i := 0; i < 100; i++ {
		if wait, parked := g.reserve(time.Unix(0, 0)); wait != 0 || parked {
			t.Fatalf("retry %d parked with no budget configured", i)
		}
	}
}

func TestRetryPauseSleepsMaxOfBackoffAndPark(t *testing.T) {
	now := time.Unix(0, 0)
	e := &Engine{Retry: RetryConfig{
		BaseDelay: 10 * time.Millisecond, MaxDelay: 10 * time.Millisecond,
		BudgetPerSecond: 1, BudgetBurst: 1, Seed: 1,
	}}
	// First retry spends the burst token: only the backoff sleeps
	// (10ms envelope, so at most 10ms). The second is over budget: the
	// 1s park dominates the 10ms backoff.
	slept := []time.Duration{e.retryDelay(1, now), e.retryDelay(1, now)}
	if slept[0] > 10*time.Millisecond || slept[0] < 5*time.Millisecond {
		t.Fatalf("first sleep %v outside backoff envelope [5ms, 10ms]", slept[0])
	}
	if slept[1] != time.Second {
		t.Fatalf("second sleep = %v, want the 1s budget park", slept[1])
	}
	retries, parked := e.RetryStats()
	if retries != 2 || parked != 1 {
		t.Fatalf("RetryStats = %d/%d, want 2 retries, 1 park", retries, parked)
	}
}

// TestRetryPauseZeroConfigBacksOffFromDefault pins the zero config:
// every retry sleeps, the first within [base/2, base] of
// DefaultRetryBaseDelay, doubling per attempt and capped at 64x.
func TestRetryPauseZeroConfigBacksOffFromDefault(t *testing.T) {
	e := &Engine{Retry: RetryConfig{Seed: 1}}
	const base = DefaultRetryBaseDelay
	want := []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base, 64 * base, 64 * base, 64 * base}
	for i, d := range want {
		if slept := e.retryDelay(i+1, time.Unix(0, 0)); slept < d/2 || slept > d {
			t.Fatalf("attempt %d: slept %v, outside [%v, %v]", i+1, slept, d/2, d)
		}
	}
	if _, parked := e.RetryStats(); parked != 0 {
		t.Fatalf("%d retries parked with no budget configured", parked)
	}
}
