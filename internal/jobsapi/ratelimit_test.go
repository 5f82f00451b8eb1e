package jobsapi

import (
	"fmt"
	"testing"
	"time"
)

// TestRateLimiterSweepsRefilledBuckets pins the limiter's bound under
// owner churn: a bucket that has refilled to burst is dropped at the
// next sweep, an owner still in deficit keeps its bucket and its
// deficit, and a swept owner that returns gets a full bucket — exactly
// what its old one would have held.
func TestRateLimiterSweepsRefilledBuckets(t *testing.T) {
	clock := time.Unix(1_000_000, 0)
	l := newRateLimiter(RateLimitConfig{RequestsPerSecond: 2, Burst: 4}, func() time.Time { return clock })
	size := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.buckets)
	}

	for i := 0; i < 10_000; i++ {
		if rerr := l.allow(fmt.Sprintf("one-shot-%d", i)); rerr != nil {
			t.Fatalf("first request of owner %d throttled: %v", i, rerr)
		}
	}
	if size() != 10_000 {
		t.Fatalf("%d buckets after 10000 one-shot owners in one instant", size())
	}

	// One second on, the one-shot owners (one token spent, two a second
	// back) are full again, but the refill time of a whole bucket — the
	// sweep period — has not passed: nothing is swept yet. "busy" drains
	// its bucket and is throttled.
	clock = clock.Add(time.Second)
	for i := 0; i < 4; i++ {
		if rerr := l.allow("busy"); rerr != nil {
			t.Fatalf("busy request %d throttled inside its burst: %v", i, rerr)
		}
	}
	if l.allow("busy") == nil {
		t.Fatal("busy not throttled after its burst")
	}
	if size() != 10_001 {
		t.Fatalf("%d buckets before the sweep period passed, want 10001", size())
	}

	// Past the refill time the next request sweeps: only "busy" (two of
	// four tokens back) and the requester itself remain.
	clock = clock.Add(time.Second)
	if rerr := l.allow("live"); rerr != nil {
		t.Fatal(rerr)
	}
	if size() != 2 {
		t.Fatalf("%d buckets after the sweep, want 2 (busy, live)", size())
	}
	// busy kept its deficit: two tokens, not a fresh burst of four.
	for i := 0; i < 2; i++ {
		if rerr := l.allow("busy"); rerr != nil {
			t.Fatalf("busy request %d after a 1 s refill throttled: %v", i, rerr)
		}
	}
	if l.allow("busy") == nil {
		t.Fatal("the sweep handed busy a fresh bucket: its deficit is gone")
	}
	if got := l.throttledCount("busy"); got != 2 {
		t.Fatalf("busy throttled %d times, want 2", got)
	}
	// A swept owner returns to a full burst.
	for i := 0; i < 4; i++ {
		if rerr := l.allow("one-shot-7"); rerr != nil {
			t.Fatalf("returning owner's request %d throttled: %v", i, rerr)
		}
	}
}
