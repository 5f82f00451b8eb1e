package exec

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"vdce/internal/rate"
)

// DefaultRetryBaseDelay is the first retry's backoff when
// RetryConfig.BaseDelay is zero: long enough that the retries of a mass
// host failure do not land on the scheduler in one instant, short
// against a task that has to be placed and run again anyway.
const DefaultRetryBaseDelay = 2 * time.Millisecond

// RetryConfig shapes the engine's rescheduling retries. A wave of host
// failures (a quarter of the site dying at once) multiplies load
// exactly when the site has the least capacity to absorb it, so a
// retry is never immediate: backoff spaces the retries of one task, and
// the engine-wide token-bucket budget caps the aggregate retry rate
// across every application the engine is running.
type RetryConfig struct {
	// BaseDelay is the first retry's backoff; attempt n waits a jittered
	// BaseDelay * 2^(n-1), capped at MaxDelay (default
	// DefaultRetryBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 64 * BaseDelay).
	MaxDelay time.Duration
	// BudgetPerSecond is the engine-wide retry budget: the sustained
	// rate of rescheduling retries the engine will perform across all
	// applications. Retries beyond the budget park until their reserved
	// token refills instead of hammering the scheduler. 0 = unlimited.
	BudgetPerSecond float64
	// BudgetBurst is the bucket capacity (default ceil(BudgetPerSecond),
	// minimum 1): how many retries may fire back-to-back before the
	// rate limit bites.
	BudgetBurst int
	// Seed makes the jitter deterministic for tests. 0 seeds from the
	// clock.
	Seed int64
}

// retryGate is the runtime form of RetryConfig: one per Engine, lazily
// built, shared by every task controller.
type retryGate struct {
	cfg RetryConfig

	mu     sync.Mutex
	rng    *rand.Rand
	budget rate.Bucket

	retries int64
	parks   int64
}

func newRetryGate(cfg RetryConfig) *retryGate {
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = DefaultRetryBaseDelay
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 64 * cfg.BaseDelay
	}
	if cfg.BudgetPerSecond > 0 && cfg.BudgetBurst <= 0 {
		cfg.BudgetBurst = int(math.Ceil(cfg.BudgetPerSecond))
		if cfg.BudgetBurst < 1 {
			cfg.BudgetBurst = 1
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &retryGate{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// backoff returns the jittered exponential delay before retry number
// attempt (1-based: the delay taken after the first failed attempt).
// Full-jitter on the upper half keeps retries spread while preserving
// the exponential floor: d/2 + rand[0, d/2).
func (g *retryGate) backoff(attempt int) time.Duration {
	d := g.cfg.BaseDelay
	for i := 1; i < attempt && d < g.cfg.MaxDelay; i++ {
		d *= 2
	}
	if d > g.cfg.MaxDelay {
		d = g.cfg.MaxDelay
	}
	g.mu.Lock()
	j := time.Duration(g.rng.Int63n(int64(d/2) + 1))
	g.mu.Unlock()
	return d/2 + j
}

// reserve takes one retry token at now, returning how long the caller
// must park first. With tokens in the bucket the wait is 0; an empty
// bucket reserves the next token to refill and returns the time until
// then, so the aggregate retry rate never exceeds the budget.
func (g *retryGate) reserve(now time.Time) (wait time.Duration, parked bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.retries++
	if g.cfg.BudgetPerSecond <= 0 {
		return 0, false
	}
	wait = g.budget.Take(now, g.cfg.BudgetPerSecond, float64(g.cfg.BudgetBurst))
	if wait > 0 {
		g.parks++
	}
	return wait, wait > 0
}

// RetryStats reports the engine's cumulative rescheduling retries and
// how many of them were parked by the budget.
func (e *Engine) RetryStats() (retries, parked int64) {
	g := e.retryGate()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.retries, g.parks
}

// retryGate lazily builds the engine's shared gate from e.Retry.
func (e *Engine) retryGate() *retryGate {
	e.retryOnce.Do(func() {
		e.retry = newRetryGate(e.Retry)
	})
	return e.retry
}

// retryDelay is the pause before one rescheduling retry at now: the
// jittered exponential backoff for this task, or the budget park the
// engine-wide token bucket imposes if that is longer.
func (e *Engine) retryDelay(attempt int, now time.Time) time.Duration {
	g := e.retryGate()
	d := g.backoff(attempt)
	if wait, _ := g.reserve(now); wait > d {
		// The budget park subsumes the backoff — both start now.
		d = wait
	}
	return d
}
