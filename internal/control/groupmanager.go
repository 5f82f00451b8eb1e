// Package control implements the Group Manager of the VDCE Control
// Manager's Resource Controller (Fig. 4): it aggregates its group's
// Monitor daemon measurements, forwards only significant workload
// changes to the site's resource-performance database, and checks its
// hosts with periodic echoes. Every measurement is a heartbeat for the
// failure detector (internal/detect) and every echo timeout a vote, so
// the detector alone decides when a host is marked down. Tools read the
// database over HTTP (GET /v1/hosts).
package control

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/detect"
	"vdce/internal/monitor"
	"vdce/internal/repository"
	"vdce/internal/testbed"
)

// GroupManager runs on each group leader machine: it collects Monitor
// daemon measurements, writes to the site's database only the workloads
// that changed considerably since the previous write, and periodically
// checks all hosts in the group with echo packets, reporting changes to
// the failure detector.
type GroupManager struct {
	Group string
	// Threshold is the significant-change filter: a sample is forwarded
	// only if |load - lastReported| >= Threshold or available memory
	// changed by >= MemThreshold bytes. Zero thresholds forward
	// everything.
	Threshold    float64
	MemThreshold int64
	// EchoPeriod is the echo-round cadence.
	EchoPeriod time.Duration

	hosts   []*testbed.Host
	daemons []*monitor.Daemon
	db      *repository.ResourceDB
	det     *detect.Detector

	mu           sync.Mutex
	lastReported map[string]repository.WorkloadSample
	down         map[string]bool

	// counters for E5/E6
	received  atomic.Int64 // samples received from monitors
	forwarded atomic.Int64 // samples written to the database
	echoes    atomic.Int64
}

// NewGroupManager builds a manager for the given hosts that writes
// workloads to the site's resource database db and reports liveness to
// det. monitorPeriod parameterizes the per-host daemons.
func NewGroupManager(group string, hosts []*testbed.Host, db *repository.ResourceDB, det *detect.Detector, monitorPeriod time.Duration) *GroupManager {
	gm := &GroupManager{
		Group:        group,
		Threshold:    0.05,
		MemThreshold: 16 << 20,
		EchoPeriod:   time.Second,
		hosts:        hosts,
		db:           db,
		det:          det,
		lastReported: make(map[string]repository.WorkloadSample),
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

// Ingest receives one monitor measurement: it is a heartbeat for the
// detector, and it reaches the database only when it passes the
// significant-change filter — the filter spares the database, but a
// steady host must not look silent. Exposed for deterministic tests;
// Run wires it to the daemons.
func (gm *GroupManager) Ingest(host string, s repository.WorkloadSample) error {
	gm.received.Add(1)
	gm.det.Observe(host, s.Time)
	gm.mu.Lock()
	prev, seen := gm.lastReported[host]
	significant := !seen ||
		abs(s.CPULoad-prev.CPULoad) >= gm.Threshold ||
		absI64(s.AvailMemBytes-prev.AvailMemBytes) >= gm.MemThreshold
	if significant {
		gm.lastReported[host] = s
	}
	gm.mu.Unlock()
	if !significant {
		return nil
	}
	gm.forwarded.Add(1)
	_, err := gm.db.UpdateWorkloads([]repository.HostSample{{Host: host, Sample: s}})
	return err
}

// EchoRound sends one echo to every host in the group and reports
// transitions to the detector: a newly unresponsive host is one
// suspicion vote, a host answering again a heartbeat. Neither writes a
// status; the detector's next round does. now stamps the reports.
func (gm *GroupManager) EchoRound(now time.Time) {
	for _, h := range gm.hosts {
		gm.echoes.Add(1)
		failed := h.Echo() != nil
		gm.mu.Lock()
		changed := gm.down[h.Name] != failed
		gm.down[h.Name] = failed
		gm.mu.Unlock()
		switch {
		case changed && failed:
			gm.det.ReportFailure(h.Name, now)
		case changed:
			gm.det.Observe(h.Name, now)
		}
	}
}

// Down reports whether the host failed the manager's last echo.
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
				// An unknown host (membership gone stale) loses only its
				// own sample; the daemons keep reporting.
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
				gm.EchoRound(now)
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
