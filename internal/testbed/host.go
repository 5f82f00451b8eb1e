// Package testbed fabricates the hardware the paper ran on — campus-wide
// heterogeneous workstations organized into sites and groups — as
// deterministic software models. Host models expose exactly the signals
// the VDCE runtime consumes: sampled CPU load and available memory for
// Monitor daemons, echo reachability for Group Manager failure detection,
// and a time-dilation factor the executor uses to emulate heterogeneous
// speeds when running real task code.
package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vdce/internal/repository"
)

// Host is the simulated hardware model behind one VDCE resource.
type Host struct {
	// Static identity (never changes after Build).
	Name     string
	IP       string
	Arch     string
	OS       string
	Site     string
	Group    string
	Speed    float64 // relative to base processor
	TotalMem int64

	// RunSlot holds a token while a task executes on the machine, so the
	// host runs one task at a time whichever engine or application placed
	// it there: a task takes the slot by sending and frees it by
	// receiving. A holder of several takes them in host-name order.
	RunSlot chan struct{}

	mu       sync.Mutex
	load     float64 // background CPU load random walk in [0, maxLoad]
	injected float64 // contention injected by experiments (E7)
	sigma    float64
	maxLoad  float64
	usedMem  int64 // memory claimed by running VDCE tasks
	failed   bool
	// partitioned models a network cut: the host keeps computing, but
	// monitor samples and echo packets no longer get through. Only the
	// failure detector (heartbeat silence) can notice a partition.
	partitioned bool
	rng         *rand.Rand
}

// Info renders the host as the ResourceInfo record its site's
// resource-performance database holds.
func (h *Host) Info() repository.ResourceInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	status := repository.HostUp
	if h.failed {
		status = repository.HostDown
	}
	return repository.ResourceInfo{
		HostName:    h.Name,
		IPAddress:   h.IP,
		ArchType:    h.Arch,
		OSType:      h.OS,
		TotalMem:    h.TotalMem,
		AvailMem:    h.TotalMem - h.usedMem,
		Site:        h.Site,
		Group:       h.Group,
		SpeedFactor: h.Speed,
		Status:      status,
		CPULoad:     h.effectiveLoadLocked(),
	}
}

func (h *Host) effectiveLoadLocked() float64 {
	l := h.load + h.injected
	if l > 0.99 {
		l = 0.99
	}
	if l < 0 {
		l = 0
	}
	return l
}

// Sample advances the background-load random walk one step and returns a
// monitor measurement stamped with now. This is what the Monitor daemon
// "measures" each period.
func (h *Host) Sample(now time.Time) repository.WorkloadSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Reflected random walk keeps load inside [0, maxLoad].
	h.load += h.rng.NormFloat64() * h.sigma
	if h.load < 0 {
		h.load = -h.load
	}
	if h.load > h.maxLoad {
		h.load = 2*h.maxLoad - h.load
	}
	if h.load < 0 {
		h.load = 0
	}
	return repository.WorkloadSample{
		CPULoad:       h.effectiveLoadLocked(),
		AvailMemBytes: h.TotalMem - h.usedMem,
		Time:          now,
	}
}

// CurrentLoad returns the instantaneous effective CPU load.
func (h *Host) CurrentLoad() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.effectiveLoadLocked()
}

// InjectLoad adds (or with a negative delta removes) contention on the
// host, clamped to [0, 0.99]. Experiments use this to trigger the
// Application Controller's rescheduling threshold.
func (h *Host) InjectLoad(delta float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.injected += delta
	if h.injected < 0 {
		h.injected = 0
	}
	if h.injected > 0.99 {
		h.injected = 0.99
	}
}

// Fail makes the host unreachable: echo fails and load samples stop.
func (h *Host) Fail() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed = true
}

// Recover brings a failed host back.
func (h *Host) Recover() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed = false
}

// Failed reports whether the host is currently failed (crashed). A
// merely partitioned host is NOT failed: its local execution continues.
func (h *Host) Failed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failed
}

// Partition cuts the host off the network: monitor samples and echo
// packets stop, but the machine itself keeps running. Tasks on a
// partitioned host are interrupted only when the failure detector
// confirms the silence — the end-to-end path a crash short-circuits.
func (h *Host) Partition() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.partitioned = true
}

// Heal reconnects a partitioned host.
func (h *Host) Heal() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.partitioned = false
}

// Reachable reports whether monitoring traffic (samples, echoes) gets
// through: the host is neither failed nor partitioned.
func (h *Host) Reachable() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.failed && !h.partitioned
}

// Echo models the Group Manager's echo packet: it returns an error when
// the host is unreachable (crashed or partitioned) and nil otherwise.
func (h *Host) Echo() error {
	if !h.Reachable() {
		return fmt.Errorf("testbed: host %s unreachable", h.Name)
	}
	return nil
}

// ErrNoMemory is returned when a task claims more memory than available.
var ErrNoMemory = errors.New("testbed: insufficient memory")

// ClaimMem reserves memory for a starting task.
func (h *Host) ClaimMem(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("testbed: negative memory claim %d", bytes)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.usedMem+bytes > h.TotalMem {
		return fmt.Errorf("%w: want %d, have %d on %s", ErrNoMemory, bytes, h.TotalMem-h.usedMem, h.Name)
	}
	h.usedMem += bytes
	return nil
}

// ReleaseMem returns memory when a task finishes. Releasing more than
// claimed clamps to zero.
func (h *Host) ReleaseMem(bytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.usedMem -= bytes
	if h.usedMem < 0 {
		h.usedMem = 0
	}
}

// Dilation returns the factor by which this host stretches the base
// processor's execution time right now: 1/(speed * (1-load)). The task
// executor multiplies real kernel durations by this to emulate running on
// slower or loaded hardware.
func (h *Host) Dilation() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return 1 / (h.Speed * (1 - h.effectiveLoadLocked()))
}
