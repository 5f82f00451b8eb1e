// Package services holds what is implemented of the user-requested
// runtime services of §4.2 — the console service (suspend and restart a
// running application) — and the job registry with its wire forms
// (JobBoard, JobStatus, JobTrace, HostStatus) behind the /v1 API. The
// visualization service is /metrics (internal/obs), vdce-monitor and
// trace.Gantt; the I/O service and the distributed shared memory the
// paper's conclusion announces are not implemented.
package services

import "sync"

// Console lets a user suspend and restart an application execution. The
// Application Controllers consult Suspended before starting each task,
// so a suspended application stops dispatching new tasks; running tasks
// drain, matching the paper's console semantics.
type Console struct {
	mu     sync.Mutex
	paused bool
}

// NewConsole returns a running (not suspended) console.
func NewConsole() *Console {
	return &Console{}
}

// Suspend pauses dispatch of new tasks.
func (c *Console) Suspend() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = true
}

// Resume restarts dispatch.
func (c *Console) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.paused = false
}

// Suspended reports whether dispatch is paused.
func (c *Console) Suspended() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paused
}
