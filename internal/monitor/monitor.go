// Package monitor implements the Monitor daemon of the paper's Resource
// Controller: one daemon per VDCE resource, periodically measuring
// up-to-date resource parameters (CPU load and memory availability) and
// delivering them to the Group Manager.
package monitor

import (
	"context"
	"time"

	"vdce/internal/repository"
	"vdce/internal/testbed"
)

// Sink receives each measurement a daemon takes.
type Sink func(host string, s repository.WorkloadSample)

// Daemon periodically samples one host.
type Daemon struct {
	Host   *testbed.Host
	Period time.Duration
}

// NewDaemon returns a daemon for the host with the given period
// (defaulting to one second, the era-typical monitor cadence).
func NewDaemon(h *testbed.Host, period time.Duration) *Daemon {
	if period <= 0 {
		period = time.Second
	}
	return &Daemon{Host: h, Period: period}
}

// MeasureOnce takes a single measurement immediately and delivers it,
// reporting whether a sample went out. Unreachable hosts produce
// nothing — the daemon dies with its machine, and a partitioned
// machine's reports never arrive. That silence is the heartbeat signal
// the failure detector (internal/detect) consumes.
func (d *Daemon) MeasureOnce(now time.Time, sink Sink) bool {
	if !d.Host.Reachable() {
		return false
	}
	sink(d.Host.Name, d.Host.Sample(now))
	return true
}

// Run measures every Period until ctx is done. It delivers measurements
// synchronously through sink; a slow sink backpressures the daemon, as a
// slow Group Manager link would.
func (d *Daemon) Run(ctx context.Context, sink Sink) {
	t := time.NewTicker(d.Period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			d.MeasureOnce(now, sink)
		}
	}
}
