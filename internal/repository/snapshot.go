package repository

import (
	"fmt"
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

// TaskGeneration returns the per-task record generation (see
// TaskPerfDB.TaskGeneration); ok is false for unknown tasks.
func (s *Snapshot) TaskGeneration(name string) (gen uint64, ok bool) {
	t, ok := s.perf.tasks[name]
	if !ok {
		return 0, false
	}
	return t.gen, true
}

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
	t, ok := s.perf.tasks[name]
	if !ok {
		return TaskParams{}, fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	return t.Params, nil
}

// MeasuredTime returns the smoothed measured execution time of task on
// host as of this snapshot, and whether any measurement exists.
func (s *Snapshot) MeasuredTime(task, host string) (time.Duration, bool) {
	t, ok := s.perf.tasks[task]
	if !ok {
		return 0, false
	}
	d, ok := t.Smoothed[host]
	return d, ok
}
