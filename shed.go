package vdce

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vdce/internal/afg"
	"vdce/internal/rate"
)

// Load shedding at admission. A full queue blocks Submit until a slot
// frees or the caller's context ends; ShedConfig.MaxSubmitWait bounds
// that wait, and ShedConfig.CheckDeadline refuses work that cannot meet
// its deadline. Either refusal is a typed *ShedError naming why the
// submission was shed and how long the client should wait before
// retrying; the editor maps it to 503 + Retry-After, next to the
// 429 + Retry-After quota vocabulary.

// Shed reasons carried by ShedError.
const (
	// ShedQueueFull: the admission queue stayed full for the whole
	// bounded wait.
	ShedQueueFull = "queue-full"
	// ShedDeadlineInfeasible: the job's deadline cannot be met even by
	// the task-performance database's lower-bound estimate (the graph's
	// critical path at catalog/learned base times), so admitting it
	// would only burn capacity on work that is already lost.
	ShedDeadlineInfeasible = "deadline-infeasible"
	// ShedStoreUnavailable: the durable store hit an I/O error, so a job
	// accepted now would not survive a restart.
	ShedStoreUnavailable = "store-unavailable"
)

// The /readyz shed-rate gate: the environment reports not-ready while
// more than unreadyShedRate of the submissions in the last shedWindow
// were shed.
const (
	unreadyShedRate = 0.5
	shedWindow      = 5 * time.Second
)

// ErrShed matches every shed rejection via errors.Is.
var ErrShed = errors.New("vdce: submission shed")

// ShedError is the typed rejection of an overloaded admission path.
type ShedError struct {
	// Reason is one of the Shed* constants.
	Reason string
	// RetryAfter is the suggested client backoff; HTTP surfaces emit it
	// as a Retry-After header.
	RetryAfter time.Duration
	// Detail elaborates (queue depth, estimate vs deadline).
	Detail string
}

func (e *ShedError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%v (%s): %s", ErrShed, e.Reason, e.Detail)
	}
	return fmt.Sprintf("%v (%s)", ErrShed, e.Reason)
}

// Is lets errors.Is(err, ErrShed) match the typed rejection.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// ShedConfig tunes load shedding at admission. Each check is governed
// by its own field; the zero value never sheds.
type ShedConfig struct {
	// MaxSubmitWait bounds how long Submit may wait for a queue slot
	// before shedding with reason queue-full. 0 leaves the wait bounded
	// by the caller's context alone.
	MaxSubmitWait time.Duration
	// RetryAfter is the backoff hint carried by ShedError (default 1s).
	RetryAfter time.Duration
	// CheckDeadline enables the deadline-infeasibility estimate: a
	// submission whose deadline is closer than the graph's critical-path
	// lower bound (task-performance base times) sheds immediately.
	CheckDeadline bool
}

func (c *ShedConfig) fillDefaults() {
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// shedMeter is the /readyz gate's evidence: accepted and shed
// submissions over the last shedWindow, in two buckets.
type shedMeter struct {
	mu sync.Mutex
	w  rate.Window
}

func newShedMeter() *shedMeter { return &shedMeter{w: rate.NewWindow(shedWindow, 2)} }

func (m *shedMeter) record(now time.Time, shed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.w.Advance(now)
	m.w.Add(shed)
}

// rate returns the windowed shed fraction and sample count at now.
func (m *shedMeter) rate(now time.Time) (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.w.Advance(now)
	return m.w.Rate()
}

// shedError builds one rejection with the configured backoff hint.
func (c *ShedConfig) shedError(reason, detail string) *ShedError {
	return &ShedError{Reason: reason, RetryAfter: c.RetryAfter, Detail: detail}
}

// preAdmitShed runs the shed checks that need no queue slot: a failed
// durable store and deadline infeasibility. It returns nil when the
// submission may proceed to admission.
func (p *pipeline) preAdmitShed(spec submitSpec) *ShedError {
	if err := p.storeFailure(); err != nil {
		return p.cfg.Shed.shedError(ShedStoreUnavailable, err.Error())
	}
	if !p.cfg.Shed.CheckDeadline || spec.deadline.IsZero() {
		return nil
	}
	est, ok := p.minCompletionEstimate(spec.graph)
	if !ok {
		return nil
	}
	if remaining := time.Until(spec.deadline); remaining < est {
		return p.cfg.Shed.shedError(ShedDeadlineInfeasible,
			fmt.Sprintf("critical-path estimate %v exceeds remaining %v", est, remaining.Round(time.Millisecond)))
	}
	return nil
}

// storeFailure returns the durable store's sticky I/O error, nil for a
// healthy store and for an environment without one.
func (p *pipeline) storeFailure() error {
	if p.store == nil {
		return nil
	}
	return p.store.Err()
}

// minCompletionEstimate lower-bounds the graph's completion time from
// the task-performance database: the critical path at per-task base
// times, ignoring queueing, placement, and communication — anything the
// estimate omits only makes the true completion later, so a deadline
// the estimate already misses is genuinely infeasible.
func (p *pipeline) minCompletionEstimate(g *afg.Graph) (time.Duration, bool) {
	costs, err := p.env.taskCosts(g, nil)
	if err != nil {
		// Unknown tasks fail later with a better error; never shed on a
		// missing estimate.
		return 0, false
	}
	_, seconds, err := g.CriticalPath(func(id afg.TaskID) float64 { return costs[id] })
	if err != nil || seconds <= 0 {
		return 0, false
	}
	return time.Duration(seconds * float64(time.Second)), true
}

// Ready reports whether the environment should receive traffic, with a
// human-readable reason when it should not: the /readyz verdict. The
// environment is not ready while the recovery replay of a durable store
// still has re-admitted jobs waiting to reach a scheduler (the backlog
// belongs to the previous incarnation, not new clients) and while the
// admission path is shedding more than unreadyShedRate of recent
// submissions. A durable store that hit an I/O error makes it not ready
// for good: in-flight jobs finish, new ones are shed.
func (env *Environment) Ready() (bool, string) { return env.readyAt(time.Now()) }

// readyAt is Ready with the shed-rate window read at now.
func (env *Environment) readyAt(now time.Time) (bool, string) {
	p := env.pipe
	if err := p.storeFailure(); err != nil {
		return false, "durable store failed: " + err.Error()
	}
	if n := p.recoveryPending.Load(); n > 0 {
		return false, fmt.Sprintf("recovery replay: %d re-admitted jobs pending", n)
	}
	if rate, total := p.meter.rate(now); total >= 4 && rate > unreadyShedRate {
		return false, fmt.Sprintf("shedding %.0f%% of recent submissions", rate*100)
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return false, "pipeline closed"
	}
	return true, "ok"
}
