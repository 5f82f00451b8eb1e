package exec

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
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
	// Now supplies the budget clock (default time.Now).
	Now func() time.Time
	// Sleep performs the backoff/park waits (default a ctx-aware real
	// sleep). Tests inject a recorder to assert delays without waiting.
	Sleep func(ctx context.Context, d time.Duration) error
}

// retryGate is the runtime form of RetryConfig: one per Engine, lazily
// built, shared by every task controller.
type retryGate struct {
	cfg RetryConfig

	mu     sync.Mutex
	rng    *rand.Rand
	tokens float64
	last   time.Time

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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Now().UnixNano()
	}
	g := &retryGate{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	g.tokens = float64(cfg.BudgetBurst)
	g.last = cfg.Now()
	return g
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

// reserve takes one retry token, returning how long the caller must
// park first. With tokens in the bucket the wait is 0; an empty bucket
// reserves the next token to refill and returns the time until then,
// so the aggregate retry rate never exceeds the budget.
func (g *retryGate) reserve() (wait time.Duration, parked bool) {
	if g.cfg.BudgetPerSecond <= 0 {
		g.mu.Lock()
		g.retries++
		g.mu.Unlock()
		return 0, false
	}
	now := g.cfg.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	elapsed := now.Sub(g.last).Seconds()
	if elapsed > 0 {
		g.tokens = math.Min(float64(g.cfg.BudgetBurst), g.tokens+elapsed*g.cfg.BudgetPerSecond)
		g.last = now
	}
	g.retries++
	g.tokens--
	if g.tokens >= 0 {
		return 0, false
	}
	// Over budget: this retry owns the (-tokens)'th future token; park
	// until it exists.
	g.parks++
	return time.Duration(-g.tokens / g.cfg.BudgetPerSecond * float64(time.Second)), true
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

// retryPause applies the retry policy before one rescheduling retry:
// jittered exponential backoff for this task plus any budget park the
// engine-wide token bucket imposes. It returns ctx's error if the wait
// was interrupted.
func (e *Engine) retryPause(ctx context.Context, attempt int) error {
	g := e.retryGate()
	d := g.backoff(attempt)
	if wait, _ := g.reserve(); wait > d {
		// The budget park subsumes the backoff — both start now.
		d = wait
	}
	return g.cfg.Sleep(ctx, d)
}
