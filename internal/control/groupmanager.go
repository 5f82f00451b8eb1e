package control

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/monitor"
	"vdce/internal/protocol"
	"vdce/internal/repository"
	"vdce/internal/testbed"
)

// Reporter is where a Group Manager sends its updates: a RepoReporter,
// or a wrapper that routes failure notices elsewhere first.
type Reporter interface {
	ApplyWorkloads(protocol.WorkloadBatch) error
	ApplyFailure(protocol.FailureNotice) error
	ApplyRecovery(protocol.RecoveryNotice) error
}

// GroupManager runs on each group leader machine: it collects Monitor
// daemon measurements, forwards to the Site Manager only the workloads
// that changed considerably since the previous report, and periodically
// checks all hosts in the group with echo packets, reporting failures.
type GroupManager struct {
	Site  string
	Group string
	// Threshold is the significant-change filter: a sample is forwarded
	// only if |load - lastReported| >= Threshold or available memory
	// changed by >= MemThreshold bytes. Zero thresholds forward
	// everything.
	Threshold    float64
	MemThreshold int64
	// EchoPeriod is the failure-detection cadence; EchoTimeout is how
	// long a host may stay silent before being declared down.
	EchoPeriod  time.Duration
	EchoTimeout time.Duration
	// Heartbeat, when set, receives every measurement the group's
	// monitor daemons deliver — BEFORE the significant-change filter —
	// so a failure detector can track per-host last-seen times from the
	// full stream. The filter exists to spare the Site Manager link;
	// heartbeats must not be filtered or a steady host would look
	// silent. Set it before Run starts.
	Heartbeat monitor.Sink

	hosts    []*testbed.Host
	daemons  []*monitor.Daemon
	reporter Reporter

	mu           sync.Mutex
	lastReported map[string]repository.WorkloadSample
	lastSeen     map[string]time.Time
	down         map[string]bool

	// counters for E5/E6
	received  atomic.Int64 // samples received from monitors
	forwarded atomic.Int64 // samples forwarded to the site manager
	echoes    atomic.Int64
}

// NewGroupManager builds a manager for the given hosts reporting to
// reporter. monitorPeriod parameterizes the per-host daemons.
func NewGroupManager(site, group string, hosts []*testbed.Host, reporter Reporter, monitorPeriod time.Duration) *GroupManager {
	gm := &GroupManager{
		Site:         site,
		Group:        group,
		Threshold:    0.05,
		MemThreshold: 16 << 20,
		EchoPeriod:   time.Second,
		EchoTimeout:  3 * time.Second,
		hosts:        hosts,
		reporter:     reporter,
		lastReported: make(map[string]repository.WorkloadSample),
		lastSeen:     make(map[string]time.Time),
		down:         make(map[string]bool),
	}
	for _, h := range hosts {
		gm.daemons = append(gm.daemons, monitor.NewDaemon(h, monitorPeriod))
	}
	return gm
}

// Stats returns (samples received, samples forwarded, echoes sent).
func (gm *GroupManager) Stats() (received, forwarded, echoes int64) {
	return gm.received.Load(), gm.forwarded.Load(), gm.echoes.Load()
}

// Ingest receives one monitor measurement, applies the
// significant-change filter, and forwards when warranted. Exposed for
// deterministic tests; Run wires it to the daemons.
func (gm *GroupManager) Ingest(host string, s repository.WorkloadSample) error {
	gm.received.Add(1)
	if gm.Heartbeat != nil {
		gm.Heartbeat(host, s)
	}
	gm.mu.Lock()
	prev, seen := gm.lastReported[host]
	significant := !seen ||
		abs(s.CPULoad-prev.CPULoad) >= gm.Threshold ||
		absI64(s.AvailMemBytes-prev.AvailMemBytes) >= gm.MemThreshold
	if significant {
		gm.lastReported[host] = s
	}
	gm.lastSeen[host] = s.Time
	gm.mu.Unlock()
	if !significant {
		return nil
	}
	gm.forwarded.Add(1)
	return gm.reporter.ApplyWorkloads(protocol.WorkloadBatch{
		Site: gm.Site, Group: gm.Group,
		Samples: []protocol.HostSample{{Host: host, Sample: s}},
	})
}

// EchoRound sends one echo to every host in the group and reports
// transitions: a newly unresponsive host is reported down, a recovered
// one up. now stamps the notices.
func (gm *GroupManager) EchoRound(now time.Time) error {
	for _, h := range gm.hosts {
		gm.echoes.Add(1)
		err := h.Echo()
		gm.mu.Lock()
		wasDown := gm.down[h.Name]
		gm.mu.Unlock()
		switch {
		case err != nil && !wasDown:
			gm.mu.Lock()
			gm.down[h.Name] = true
			gm.mu.Unlock()
			if rerr := gm.reporter.ApplyFailure(protocol.FailureNotice{
				Host: h.Name, Group: gm.Group, Detected: now,
			}); rerr != nil {
				return rerr
			}
		case err == nil && wasDown:
			gm.mu.Lock()
			gm.down[h.Name] = false
			gm.mu.Unlock()
			if rerr := gm.reporter.ApplyRecovery(protocol.RecoveryNotice{
				Host: h.Name, Group: gm.Group, Detected: now,
			}); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// Down reports whether the manager currently believes host is down.
func (gm *GroupManager) Down(host string) bool {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	return gm.down[host]
}

// Run starts the monitor daemons and the echo loop, until ctx is done.
func (gm *GroupManager) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, d := range gm.daemons {
		wg.Add(1)
		go func(d *monitor.Daemon) {
			defer wg.Done()
			d.Run(ctx, func(host string, s repository.WorkloadSample) {
				// Ingest errors indicate a dead site manager; the group
				// manager keeps trying (inter-site links flap).
				_ = gm.Ingest(host, s)
			})
		}(d)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(gm.EchoPeriod)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				_ = gm.EchoRound(now)
			}
		}
	}()
	wg.Wait()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
