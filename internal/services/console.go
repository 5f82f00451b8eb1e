// Package services holds what is implemented of the user-requested
// runtime services of §4.2 — the console service (suspend and restart a
// running application) — and the job registry with its wire forms
// (JobBoard, JobStatus, JobTrace, HostStatus) behind the /v1 API. The
// visualization service is /metrics (internal/obs), vdce-monitor and
// trace.Gantt; the I/O service and the distributed shared memory the
// paper's conclusion announces are not implemented.
package services

import (
	"context"
	"sync"
)

// Console lets a user suspend and restart an application execution. The
// Application Controllers consult Gate before starting each task, so a
// suspended application stops dispatching new tasks; running tasks
// drain, matching the paper's console semantics.
type Console struct {
	mu     sync.Mutex
	paused bool
	wake   chan struct{}
}

// NewConsole returns a running (not suspended) console.
func NewConsole() *Console {
	return &Console{wake: make(chan struct{})}
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
	if c.paused {
		c.paused = false
		close(c.wake)
		c.wake = make(chan struct{})
	}
}

// Gate blocks while the console is suspended. It returns ctx.Err() if
// the context ends first, nil once dispatch may proceed.
func (c *Console) Gate(ctx context.Context) error {
	for {
		c.mu.Lock()
		if !c.paused {
			c.mu.Unlock()
			return nil
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
	}
}
