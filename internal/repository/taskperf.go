package repository

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TaskParams are the paper's per-task-implementation parameters:
// computation size, communication size, required memory size, plus the
// measured execution time on the base processor that level computation
// uses as the computation cost.
type TaskParams struct {
	Name string `json:"name"`
	// ComputationOps is the task's computation size in abstract operations
	// (the prediction model divides by effective host speed in ops/sec).
	ComputationOps float64 `json:"computation_ops"`
	// CommunicationBytes is the task's aggregate communication size.
	CommunicationBytes int64 `json:"communication_bytes"`
	// RequiredMemBytes is the memory footprint a host must provide.
	RequiredMemBytes int64 `json:"required_mem_bytes"`
	// BaseTime is the measured execution time on the base processor
	// (speed factor 1.0), stored by the paper in the task-performance
	// database and used as the level-computation cost.
	BaseTime time.Duration `json:"base_time"`
	// Parallelizable marks tasks with a parallel implementation; Serial
	// fraction follows Amdahl's law in the prediction model.
	Parallelizable bool    `json:"parallelizable"`
	SerialFraction float64 `json:"serial_fraction,omitempty"`
}

// perTask couples static parameters with the per-host exponentially
// smoothed execution times the Site Manager writes back after runs.
// Records are frozen once their epoch is published; writers replace a
// record with a fresh copy.
type perTask struct {
	Params TaskParams
	// smoothed is the measured hosts' smoothed times, sorted by host. A
	// published slice is never written: records may share it.
	smoothed []hostTime
	// taken counts the records a write-back folds into this clone; zero
	// once published.
	taken int
}

// hostTime is one host's smoothed measured time of a task.
type hostTime struct {
	host string
	d    time.Duration
}

func byHost(h hostTime, host string) int { return strings.Compare(h.host, host) }

// perfEpoch is one immutable copy-on-write snapshot of the database.
type perfEpoch struct {
	gen uint64
	// index maps a task name to its record in tasks. Epochs share it
	// until a write registers a new task.
	index map[string]int
	tasks []*perTask // records never mutate after publish
}

func (ep *perfEpoch) task(name string) (*perTask, bool) {
	i, ok := ep.index[name]
	if !ok {
		return nil, false
	}
	return ep.tasks[i], true
}

// TaskPerfDB is the task-performance database: performance
// characteristics for each task, used to predict the performance of a
// task on a given resource. Writers publish copy-on-write epochs;
// readers are lock-free pointer loads.
type TaskPerfDB struct {
	wmu   sync.Mutex // serializes writers only
	epoch atomic.Pointer[perfEpoch]
}

// smoothing is the exponential smoothing weight of a new measurement.
const smoothing = 0.5

// NewTaskPerfDB returns an empty task-performance database.
func NewTaskPerfDB() *TaskPerfDB {
	db := &TaskPerfDB{}
	db.epoch.Store(&perfEpoch{index: map[string]int{}})
	return db
}

// ErrUnknownTask is returned when a task has no performance record.
var ErrUnknownTask = errors.New("repository: unknown task")

// RegisterTask stores (or replaces) the static parameters of a task.
// A replaced task keeps its measurements.
func (db *TaskPerfDB) RegisterTask(p TaskParams) error {
	if p.Name == "" {
		return errors.New("repository: empty task name")
	}
	if p.ComputationOps < 0 || p.CommunicationBytes < 0 || p.RequiredMemBytes < 0 {
		return fmt.Errorf("repository: negative parameter for task %s", p.Name)
	}
	if p.SerialFraction < 0 || p.SerialFraction > 1 {
		return fmt.Errorf("repository: serial fraction %g out of [0,1] for task %s", p.SerialFraction, p.Name)
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.epoch.Load()
	next := &perfEpoch{gen: cur.gen + 1, index: cur.index, tasks: slices.Clone(cur.tasks)}
	t := &perTask{Params: p}
	if i, ok := cur.index[p.Name]; ok {
		t.smoothed = cur.tasks[i].smoothed
		next.tasks[i] = t
	} else {
		next.index = maps.Clone(cur.index)
		next.index[p.Name] = len(next.tasks)
		next.tasks = append(next.tasks, t)
	}
	db.epoch.Store(next)
	return nil
}

// Params returns the static parameters of the named task.
func (db *TaskPerfDB) Params(name string) (TaskParams, error) {
	t, ok := db.epoch.Load().task(name)
	if !ok {
		return TaskParams{}, fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	return t.Params, nil
}

// Execution is one measured run of a task on a host: an element of a
// RecordExecutions batch, and the record a completed task sends back
// through exec.Engine.Record.
type Execution struct {
	Task    string
	Host    string
	Elapsed time.Duration
	At      time.Time
}

// RecordExecutions folds a run's measured executions, in order, into the
// per-host smoothed estimates — this is the Site Manager's "updates the
// task-performance database with the execution time after an application
// execution is completed" — as ONE epoch. The epoch shares the task
// index and every record the batch does not touch, and the touched
// records' clones and their smoothed times are one allocation each, so
// a call allocates a fixed number of objects whatever the catalog size,
// the hosts per task or the batch. A non-nil mine selects the records
// this site's database takes (by host); the others are another site's.
// Of the selected ones, a record naming an unknown task or a negative
// elapsed time is dropped: applied counts the rest and err is the first
// drop's reason. With nothing applied no epoch is published.
func (db *TaskPerfDB) RecordExecutions(recs []Execution, mine func(host string) bool) (applied int, err error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.epoch.Load()
	// First pass: check the records and clone each touched task once, its
	// clone sharing the old smoothed times for now, and count the records
	// each clone takes.
	var tasks []*perTask // the next epoch's records
	var clones []perTask
	cells := 0 // smoothed times the clones may hold between them
	for k, rec := range recs {
		i, e := cur.take(rec, mine)
		if i < 0 {
			if err == nil {
				err = e
			}
			continue
		}
		if tasks == nil {
			tasks = slices.Clone(cur.tasks)
			clones = make([]perTask, 0, len(recs)-k) // never outgrown: tasks[i] points in
		}
		if old := cur.tasks[i]; tasks[i] == old {
			clones = append(clones, perTask{Params: old.Params, smoothed: old.smoothed})
			tasks[i] = &clones[len(clones)-1]
			cells += len(old.smoothed)
		}
		tasks[i].taken++
		cells++
		applied++
	}
	if applied == 0 {
		return 0, err
	}
	// Each clone gets its share of one block of smoothed times.
	block := make([]hostTime, cells)
	for i := range clones {
		c := &clones[i]
		n := len(c.smoothed) + c.taken
		c.smoothed, c.taken = append(block[:0:n], c.smoothed...), 0
		block = block[n:]
	}
	for _, rec := range recs {
		i, _ := cur.take(rec, mine)
		if i < 0 {
			continue
		}
		t := tasks[i]
		if j, seen := slices.BinarySearchFunc(t.smoothed, rec.Host, byHost); seen {
			t.smoothed[j].d = time.Duration(smoothing*float64(rec.Elapsed) + (1-smoothing)*float64(t.smoothed[j].d))
		} else {
			t.smoothed = slices.Insert(t.smoothed, j, hostTime{rec.Host, rec.Elapsed})
		}
	}
	db.epoch.Store(&perfEpoch{gen: cur.gen + 1, index: cur.index, tasks: tasks})
	return applied, err
}

// take returns the index of rec's task if this database takes rec, and
// -1 if not: with a nil error when mine leaves rec to another site, and
// with the reason when it is dropped.
func (ep *perfEpoch) take(rec Execution, mine func(host string) bool) (int, error) {
	if mine != nil && !mine(rec.Host) {
		return -1, nil
	}
	i, ok := ep.index[rec.Task]
	if !ok {
		return -1, fmt.Errorf("%w: %s", ErrUnknownTask, rec.Task)
	}
	if rec.Elapsed < 0 {
		return -1, fmt.Errorf("repository: negative elapsed for %s on %s", rec.Task, rec.Host)
	}
	return i, nil
}
