package jobsapi

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"vdce/internal/obs"
	"vdce/internal/rate"
)

// RateLimitConfig is a per-owner token bucket enforced at the API mux,
// the request-rate sibling of the admission layer's per-owner quotas:
// every authenticated request (list, get, cancel, subscribe) spends one
// token from the caller's bucket, which refills at RequestsPerSecond up
// to Burst. An empty bucket answers 429 with a Retry-After header —
// the same "back off, the server is healthy" vocabulary as a
// queued-jobs quota rejection — while other owners' buckets, and their
// open event streams, are untouched.
type RateLimitConfig struct {
	// RequestsPerSecond is the sustained per-owner refill rate; <= 0
	// disables rate limiting entirely.
	RequestsPerSecond float64
	// Burst is the bucket capacity (momentary excess above the sustained
	// rate); 0 defaults to max(1, ceil(RequestsPerSecond)).
	Burst int
}

// Enabled reports whether the configuration enforces anything.
func (c RateLimitConfig) Enabled() bool { return c.RequestsPerSecond > 0 }

// burst resolves the effective bucket capacity.
func (c RateLimitConfig) burst() float64 {
	if c.Burst > 0 {
		return float64(c.Burst)
	}
	return math.Max(1, math.Ceil(c.RequestsPerSecond))
}

// RateError is the typed 429 payload of a rate-limited request — the
// request-rate counterpart of the pipeline's QuotaError, sharing its
// field vocabulary (owner, resource, limit) so clients handle both the
// same way.
type RateError struct {
	// Owner is the authenticated caller ("" never occurs: auth runs
	// first).
	Owner string `json:"owner"`
	// Resource names the exhausted budget; always "api-requests".
	Resource string `json:"resource"`
	// Limit is the sustained refill rate in requests per second; Burst
	// the bucket capacity.
	Limit float64 `json:"limit"`
	Burst int     `json:"burst"`
	// RetryAfter is how long until one token is available.
	RetryAfter time.Duration `json:"-"`
}

func (e *RateError) Error() string {
	return fmt.Sprintf("jobsapi: owner %s over %s quota (%g req/s, burst %d): retry in %s",
		e.Owner, e.Resource, e.Limit, e.Burst, e.RetryAfter.Round(time.Millisecond))
}

// rateLimiter holds one bucket per owner with a deficit. Buckets are
// created on first use and swept out once they have refilled to burst —
// a full bucket is indistinguishable from an absent one — so the map is
// bounded by the owners active within one refill time, not by every
// owner ever seen.
type rateLimiter struct {
	cfg RateLimitConfig
	// throttles is the per-owner 429 counter family
	// (vdce_api_rate_throttled_total). It is the single tally behind both
	// /v1/owners' rate_throttled and /metrics: the registry cell IS the
	// count, so the two surfaces cannot disagree. A private registry
	// backs un-instrumented mounts so allow never branches.
	throttles *obs.CounterVec

	mu      sync.Mutex
	buckets map[string]*rateBucket
	swept   time.Time // last sweep of refilled buckets
}

type rateBucket struct {
	rate.Bucket
	// throttled is the owner's resolved 429 counter handle, from the
	// limiter's throttles family.
	throttled *obs.Counter
}

// newRateLimiter returns the limiter cfg enforces, nil when it enforces
// nothing. Its throttle counters live on reg, or on a private registry
// when reg is nil.
func newRateLimiter(cfg RateLimitConfig, reg *obs.Registry) *rateLimiter {
	if !cfg.Enabled() {
		return nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &rateLimiter{
		cfg: cfg,
		throttles: reg.Counter("vdce_api_rate_throttled_total",
			"API requests answered 429 by the per-owner token bucket, by owner.", "owner"),
		buckets: make(map[string]*rateBucket),
	}
}

// allow spends one token from the owner's bucket at now, reporting nil
// on success and a *RateError (with RetryAfter filled) when the bucket
// is empty.
func (l *rateLimiter) allow(owner string, now time.Time) *RateError {
	rps, burst := l.cfg.RequestsPerSecond, l.cfg.burst()
	l.mu.Lock()
	defer l.mu.Unlock()
	// Sweep at most once per refill time (burst/rate seconds): amortised
	// O(1) a request, and no bucket outlives its deficit by more than that.
	if idle := now.Sub(l.swept).Seconds(); idle*rps >= burst {
		l.swept = now
		for o, b := range l.buckets {
			if b.Full(now, rps, burst) {
				delete(l.buckets, o)
			}
		}
	}
	b, ok := l.buckets[owner]
	if !ok {
		b = &rateBucket{throttled: l.throttles.With(owner)}
		l.buckets[owner] = b
	}
	wait := b.Take(now, rps, burst)
	if wait == 0 {
		return nil
	}
	// An empty bucket rejects rather than reserves: the request takes
	// no token and is told when one will be there.
	b.Refund()
	b.throttled.Inc()
	return &RateError{
		Owner: owner, Resource: "api-requests",
		Limit: rps, Burst: int(burst), RetryAfter: wait,
	}
}

// throttled returns how many 429s this owner has been served, read
// from the shared registry counter.
func (l *rateLimiter) throttledCount(owner string) uint64 {
	return uint64(l.throttles.Value(owner))
}

// writeRateErr renders a 429: Retry-After plus the structured
// QuotaError-style body.
func writeRateErr(w http.ResponseWriter, e *RateError) {
	secs := int(math.Ceil(e.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	w.Header().Set("X-RateLimit-Limit", fmt.Sprintf("%g", e.Limit))
	w.Header().Set("X-RateLimit-Burst", fmt.Sprint(e.Burst))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":    e.Error(),
		"owner":    e.Owner,
		"resource": e.Resource,
		"limit":    e.Limit,
		"burst":    e.Burst,
	})
}
