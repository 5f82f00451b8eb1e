package repository

import (
	"fmt"
	"slices"
	"time"
)

// Snapshot is a coherent, immutable view of one site's scheduling state:
// the resource-performance epoch and the task-performance epoch current
// at the moment Snapshot() was called. A scheduler takes one snapshot
// per round and reads it lock-free throughout, so concurrent monitor or
// failure-detection writes cannot tear a round's view of the site —
// every Predict in the round sees the same catalog. The task-constraints
// database is not part of the snapshot: install locations are
// write-rarely registration state, read live by the host-selection
// eligibility filter.
//
// Slices returned by Snapshot methods are shared with the underlying
// epoch and must not be modified.
type Snapshot struct {
	res  *hostEpoch
	perf *perfEpoch
}

// Snapshot captures the current resource and task-performance epochs.
// The two pointer loads are each atomic; the pair is fixed for the
// snapshot's lifetime.
func (r *Repository) Snapshot() *Snapshot {
	return &Snapshot{
		res:  r.Resources.epoch.Load(),
		perf: r.TaskPerf.epoch.Load(),
	}
}

// ResourceGeneration is the resource epoch number: any host add/remove,
// status flip, or workload update observed by this snapshot bumps it.
func (s *Snapshot) ResourceGeneration() uint64 { return s.res.gen }

// UpHosts returns the slim views of all up hosts, name-sorted. Shared
// slice — do not modify.
func (s *Snapshot) UpHosts() []HostView { return s.res.up }

// View returns the slim view of the named host.
func (s *Snapshot) View(name string) (HostView, bool) {
	h, ok := s.res.byName[name]
	if !ok {
		return HostView{}, false
	}
	return h.View(), true
}

// TaskParams returns the static parameters of the named task as of this
// snapshot.
func (s *Snapshot) TaskParams(name string) (TaskParams, error) {
	t, ok := s.perf.task(name)
	if !ok {
		return TaskParams{}, fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	return t.Params, nil
}

// Measurements returns the named task's smoothed measured times as of
// this snapshot: one lookup of the task for a sweep over many hosts.
func (s *Snapshot) Measurements(task string) Measurements {
	if t, ok := s.perf.task(task); ok {
		return Measurements{t.smoothed}
	}
	return Measurements{}
}

// Measurements is one task's smoothed measured times in one epoch,
// sorted by host; the zero value holds none.
type Measurements struct{ s []hostTime }

// On returns the smoothed measured time on host and whether one exists.
func (m Measurements) On(host string) (time.Duration, bool) {
	i, ok := slices.BinarySearchFunc(m.s, host, byHost)
	if !ok {
		return 0, false
	}
	return m.s[i].d, true
}

// Seek is On for hosts asked in ascending name order: it drops the
// times of the hosts before host from m, so a sweep over name-sorted
// hosts is one merge walk.
func (m *Measurements) Seek(host string) (time.Duration, bool) {
	for len(m.s) > 0 && m.s[0].host < host {
		m.s = m.s[1:]
	}
	if len(m.s) == 0 || m.s[0].host != host {
		return 0, false
	}
	return m.s[0].d, true
}
