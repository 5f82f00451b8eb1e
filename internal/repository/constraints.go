package repository

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ConstraintsDB is the task-constraints database: the location (absolute
// path of the task executable) of each task on each host. A task can run
// on a host only if a location is registered there.
type ConstraintsDB struct {
	mu sync.RWMutex
	// gen counts writes, so cached derivations (ranked-host lists)
	// invalidate when the installed-task map changes.
	gen atomic.Uint64
	// locations[task][host] = absolute executable path
	locations map[string]map[string]string
}

// Generation returns the write counter; it changes whenever a location
// is added or removed.
func (db *ConstraintsDB) Generation() uint64 { return db.gen.Load() }

// NewConstraintsDB returns an empty constraints database.
func NewConstraintsDB() *ConstraintsDB {
	return &ConstraintsDB{locations: make(map[string]map[string]string)}
}

// ErrNoLocation is returned when a task has no executable on a host.
var ErrNoLocation = errors.New("repository: no executable location")

// SetLocation registers the executable path of task on host.
func (db *ConstraintsDB) SetLocation(task, host, path string) error {
	if task == "" || host == "" || path == "" {
		return errors.New("repository: SetLocation requires task, host, and path")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.locations[task]
	if !ok {
		m = make(map[string]string)
		db.locations[task] = m
	}
	m[host] = path
	db.gen.Add(1)
	return nil
}

// Location returns the executable path of task on host.
func (db *ConstraintsDB) Location(task, host string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if p, ok := db.locations[task][host]; ok {
		return p, nil
	}
	return "", fmt.Errorf("%w: task %s on host %s", ErrNoLocation, task, host)
}

// HasTask reports whether host can run task.
func (db *ConstraintsDB) HasTask(task, host string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.locations[task][host]
	return ok
}

// HostsWithTask returns the hosts where task is installed, sorted.
func (db *ConstraintsDB) HostsWithTask(task string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.locations[task]
	out := make([]string, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// RemoveHost drops every location on the given host (host
// decommissioned).
func (db *ConstraintsDB) RemoveHost(host string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, m := range db.locations {
		delete(m, host)
	}
	db.gen.Add(1)
}

// InstallEverywhere registers task at path on every listed host — a
// convenience for testbed setup.
func (db *ConstraintsDB) InstallEverywhere(task, path string, hosts []string) error {
	for _, h := range hosts {
		if err := db.SetLocation(task, h, path); err != nil {
			return err
		}
	}
	return nil
}
