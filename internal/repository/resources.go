package repository

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HostStatus is the availability state the Resource Controller maintains.
type HostStatus string

const (
	// HostUp means the host answers echo packets.
	HostUp HostStatus = "up"
	// HostDown means the Group Manager detected a failure; the paper says
	// the host "is then marked as down at the site's
	// resource-performance database".
	HostDown HostStatus = "down"
)

// WorkloadSample is one monitor measurement of a host.
type WorkloadSample struct {
	// CPULoad is the fraction of CPU consumed by other work, in [0, 1).
	CPULoad float64 `json:"cpu_load"`
	// AvailMemBytes is currently available memory.
	AvailMemBytes int64 `json:"avail_mem_bytes"`
	// Time is when the sample was taken.
	Time time.Time `json:"time"`
}

// ResourceInfo carries the paper's resource-performance attributes: host
// name, IP address, architecture type, OS type, total memory, recent
// workload measurements, and available memory — plus site/group placement
// and a relative speed factor used by performance prediction.
type ResourceInfo struct {
	HostName    string           `json:"host_name"`
	IPAddress   string           `json:"ip_address"`
	ArchType    string           `json:"arch_type"`
	OSType      string           `json:"os_type"`
	TotalMem    int64            `json:"total_mem_bytes"`
	AvailMem    int64            `json:"avail_mem_bytes"`
	Site        string           `json:"site"`
	Group       string           `json:"group"`
	SpeedFactor float64          `json:"speed_factor"` // relative to the base processor (1.0)
	Status      HostStatus       `json:"status"`
	CPULoad     float64          `json:"cpu_load"`
	LastSeen    time.Time        `json:"last_seen"`
	RecentLoads []WorkloadSample `json:"recent_loads,omitempty"`
}

// View returns the slim scheduling-path view of the record.
func (r *ResourceInfo) View() HostView {
	return HostView{
		HostName:    r.HostName,
		IPAddress:   r.IPAddress,
		ArchType:    r.ArchType,
		OSType:      r.OSType,
		TotalMem:    r.TotalMem,
		AvailMem:    r.AvailMem,
		Site:        r.Site,
		Group:       r.Group,
		SpeedFactor: r.SpeedFactor,
		Status:      r.Status,
		CPULoad:     r.CPULoad,
		LastSeen:    r.LastSeen,
	}
}

// HostView is the slim, history-free view of a host record: every field
// the prediction model and the host-selection algorithm read, without the
// RecentLoads ring. Views are plain values; the scheduling path copies
// them freely without touching the heap.
type HostView struct {
	HostName    string
	IPAddress   string
	ArchType    string
	OSType      string
	TotalMem    int64
	AvailMem    int64
	Site        string
	Group       string
	SpeedFactor float64
	Status      HostStatus
	CPULoad     float64
	LastSeen    time.Time
}

// MachineType mirrors ResourceInfo.MachineType for preference matching.
func (v HostView) MachineType() string {
	return v.ArchType + " " + v.OSType
}

// maxRecent bounds the per-host workload history ring.
const maxRecent = 32

// hostEpoch is one immutable copy-on-write snapshot of the database.
// Records and the derived slices are frozen once the epoch is published;
// readers share them without locking or cloning.
type hostEpoch struct {
	gen    uint64
	byName map[string]*ResourceInfo // records never mutate after publish
	views  []HostView               // all hosts, name-sorted
	up     []HostView               // up hosts, name-sorted
}

// ResourceDB is the resource-performance database of one site. Writers
// build a fresh epoch under a mutex and publish it atomically; readers
// are lock-free pointer loads against the last published epoch.
type ResourceDB struct {
	wmu   sync.Mutex // serializes writers only
	epoch atomic.Pointer[hostEpoch]
}

// NewResourceDB returns an empty resource database.
func NewResourceDB() *ResourceDB {
	db := &ResourceDB{}
	db.epoch.Store(buildHostEpoch(0, map[string]*ResourceInfo{}))
	return db
}

// buildHostEpoch derives the read-optimized slices from the record map.
func buildHostEpoch(gen uint64, byName map[string]*ResourceInfo) *hostEpoch {
	e := &hostEpoch{gen: gen, byName: byName}
	e.views = make([]HostView, 0, len(byName))
	for _, h := range byName {
		e.views = append(e.views, h.View())
	}
	slices.SortFunc(e.views, func(a, b HostView) int { return strings.Compare(a.HostName, b.HostName) })
	e.up = make([]HostView, 0, len(e.views))
	for _, v := range e.views {
		if v.Status == HostUp {
			e.up = append(e.up, v)
		}
	}
	return e
}

// nextHostEpoch builds the epoch following cur for record map m. Writes
// that keep the host set intact (workload updates, status flips — the
// monitor hot path) reuse cur's name order, skipping the sort;
// membership changes fall back to the full rebuild.
func nextHostEpoch(cur *hostEpoch, gen uint64, m map[string]*ResourceInfo) *hostEpoch {
	if len(m) != len(cur.byName) {
		return buildHostEpoch(gen, m)
	}
	views := make([]HostView, len(cur.views))
	for i, v := range cur.views {
		h, ok := m[v.HostName]
		if !ok {
			return buildHostEpoch(gen, m) // renamed/replaced membership
		}
		views[i] = h.View()
	}
	e := &hostEpoch{gen: gen, byName: m, views: views}
	e.up = make([]HostView, 0, len(views))
	for _, v := range views {
		if v.Status == HostUp {
			e.up = append(e.up, v)
		}
	}
	return e
}

// errNoChange aborts an epoch publish without error: f applied nothing,
// so the current epoch (and its generation) stays in place and cached
// derivations remain valid.
var errNoChange = errors.New("repository: no change")

// mutate runs f over a private copy of the record map and publishes the
// result as a new epoch. f must replace (not modify) any record it
// changes: records already in the map belong to prior epochs.
func (db *ResourceDB) mutate(f func(m map[string]*ResourceInfo) error) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.epoch.Load()
	m := make(map[string]*ResourceInfo, len(cur.byName)+1)
	for k, v := range cur.byName {
		m[k] = v
	}
	if err := f(m); err != nil {
		if errors.Is(err, errNoChange) {
			return nil
		}
		return err
	}
	db.epoch.Store(nextHostEpoch(cur, cur.gen+1, m))
	return nil
}

// Generation returns the current epoch number. It increases on every
// successful write (AddHost, UpdateWorkload, SetStatus, RemoveHost,
// batch updates, restore), so an unchanged generation guarantees an
// unchanged host catalog.
func (db *ResourceDB) Generation() uint64 {
	return db.epoch.Load().gen
}

// Errors returned by resource operations.
var (
	ErrUnknownHost = errors.New("repository: unknown host")
	ErrHostExists  = errors.New("repository: host already registered")
)

// AddHost registers a host. SpeedFactor defaults to 1 and status to up.
func (db *ResourceDB) AddHost(info ResourceInfo) error {
	if info.HostName == "" {
		return errors.New("repository: empty host name")
	}
	if info.SpeedFactor <= 0 {
		info.SpeedFactor = 1
	}
	if info.Status == "" {
		info.Status = HostUp
	}
	if info.AvailMem == 0 {
		info.AvailMem = info.TotalMem
	}
	return db.mutate(func(m map[string]*ResourceInfo) error {
		if _, ok := m[info.HostName]; ok {
			return fmt.Errorf("%w: %s", ErrHostExists, info.HostName)
		}
		c := cloneResource(&info) // private RecentLoads backing
		m[info.HostName] = &c
		return nil
	})
}

// withSample returns a fresh record extending h with one measurement.
// The history ring is a shared-tail chronicle: every epoch's record
// views a window [k:L] of one backing array, and new samples append at
// the global tail L — an address no older window covers — so the append
// is invisible to prior epochs. Only when capacity runs out does append
// copy the ≤maxRecent window into fresh backing, making ring growth
// amortized O(1) per monitor write instead of O(maxRecent). Writers are
// serialized by the database mutex, so the tail has a single appender.
func withSample(h *ResourceInfo, s WorkloadSample) *ResourceInfo {
	c := *h
	c.CPULoad = s.CPULoad
	c.AvailMem = s.AvailMemBytes
	c.LastSeen = s.Time
	ring := append(h.RecentLoads, s)
	if len(ring) > maxRecent {
		ring = ring[len(ring)-maxRecent:]
	}
	c.RecentLoads = ring
	return &c
}

// UpdateWorkload records a monitor sample for the host, updating the
// current load/memory fields and the bounded history ring.
func (db *ResourceDB) UpdateWorkload(host string, s WorkloadSample) error {
	return db.mutate(func(m map[string]*ResourceInfo) error {
		h, ok := m[host]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownHost, host)
		}
		m[host] = withSample(h, s)
		return nil
	})
}

// HostSample pairs a host with one monitor measurement, for batch writes.
type HostSample struct {
	Host   string
	Sample WorkloadSample
}

// UpdateWorkloads applies a whole monitor batch in one epoch publish —
// the Group Manager write path. Samples for known hosts are always
// applied; unknown hosts (a Group Manager whose membership is stale
// after a RemoveHost) are skipped and reported, so one dead entry can
// never starve the rest of the group of monitor data. It returns how
// many samples were applied alongside any unknown-host error.
func (db *ResourceDB) UpdateWorkloads(batch []HostSample) (int, error) {
	updates := make([]RoundUpdate, len(batch))
	for i := range batch {
		updates[i] = RoundUpdate{Host: batch[i].Host, Sample: &batch[i].Sample}
	}
	return db.ApplyRound(updates)
}

// RoundUpdate is one host's entry in a full monitor round: a status and
// an optional measurement.
type RoundUpdate struct {
	Host   string
	Status HostStatus // "" leaves the status unchanged
	Sample *WorkloadSample
}

// ApplyRound applies one synchronous monitor round — statuses and
// samples for many hosts — as a single epoch publish, so a whole refresh
// costs one generation bump instead of one per host. Known hosts are
// always applied; unknown ones are skipped and reported. A round that
// applies nothing publishes no epoch (the generation does not move, so
// cached rankings stay valid). Returns the applied-update count.
func (db *ResourceDB) ApplyRound(updates []RoundUpdate) (int, error) {
	if len(updates) == 0 {
		return 0, nil
	}
	var unknown []string
	applied := 0
	err := db.mutate(func(m map[string]*ResourceInfo) error {
		for _, u := range updates {
			h, ok := m[u.Host]
			if !ok {
				unknown = append(unknown, u.Host)
				continue
			}
			// A status-only update that matches the current status is a
			// no-op: applying it would publish an epoch and invalidate
			// every cached ranking for nothing. A sample always applies
			// (it refreshes LastSeen even at an identical load).
			if u.Sample == nil && (u.Status == "" || u.Status == h.Status) {
				continue
			}
			if u.Sample != nil {
				h = withSample(h, *u.Sample)
			} else {
				c := *h
				h = &c
			}
			if u.Status != "" {
				h.Status = u.Status
			}
			m[u.Host] = h
			applied++
		}
		if applied == 0 {
			return errNoChange
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(unknown) > 0 {
		return applied, fmt.Errorf("%w: %s", ErrUnknownHost, strings.Join(unknown, ", "))
	}
	return applied, nil
}

// SetStatus marks a host up or down (failure detection outcome).
func (db *ResourceDB) SetStatus(host string, st HostStatus) error {
	return db.mutate(func(m map[string]*ResourceInfo) error {
		h, ok := m[host]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownHost, host)
		}
		c := *h // RecentLoads backing is shared; both records are frozen
		c.Status = st
		m[host] = &c
		return nil
	})
}

// Host returns a full-fidelity copy of the named host's record,
// including the workload history ring. Scheduling-path callers that
// never read history should use View instead.
func (db *ResourceDB) Host(name string) (ResourceInfo, error) {
	h, ok := db.epoch.Load().byName[name]
	if !ok {
		return ResourceInfo{}, fmt.Errorf("%w: %s", ErrUnknownHost, name)
	}
	return cloneResource(h), nil
}

// View returns the slim view of the named host without cloning history.
func (db *ResourceDB) View(name string) (HostView, bool) {
	h, ok := db.epoch.Load().byName[name]
	if !ok {
		return HostView{}, false
	}
	return h.View(), true
}

// Hosts returns full-fidelity copies of all host records sorted by name
// — the explicit history accessor (persistence, the resources RPC/HTTP
// endpoint). The scheduling path reads Views instead.
func (db *ResourceDB) Hosts() []ResourceInfo {
	e := db.epoch.Load()
	out := make([]ResourceInfo, 0, len(e.views))
	for _, v := range e.views {
		out = append(out, cloneResource(e.byName[v.HostName]))
	}
	return out
}

// UpHosts returns full copies of all hosts currently marked up, sorted
// by name.
func (db *ResourceDB) UpHosts() []ResourceInfo {
	e := db.epoch.Load()
	out := make([]ResourceInfo, 0, len(e.up))
	for _, v := range e.up {
		out = append(out, cloneResource(e.byName[v.HostName]))
	}
	return out
}

// Views returns the slim views of all hosts sorted by name. The slice is
// shared with the current epoch: callers must not modify it.
func (db *ResourceDB) Views() []HostView {
	return db.epoch.Load().views
}

// RemoveHost deletes a host record.
func (db *ResourceDB) RemoveHost(name string) error {
	return db.mutate(func(m map[string]*ResourceInfo) error {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownHost, name)
		}
		delete(m, name)
		return nil
	})
}

func cloneResource(h *ResourceInfo) ResourceInfo {
	c := *h
	c.RecentLoads = append([]WorkloadSample(nil), h.RecentLoads...)
	return c
}
