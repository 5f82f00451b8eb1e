package repository

import (
	"errors"
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

// HasTask reports whether host can run task.
func (db *ConstraintsDB) HasTask(task, host string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.locations[task][host]
	return ok
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
