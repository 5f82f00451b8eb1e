package repository

import (
	"errors"
	"fmt"
	"slices"
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

// Measurement is one observed execution of a task on a host.
type Measurement struct {
	Host    string        `json:"host"`
	Elapsed time.Duration `json:"elapsed"`
	Time    time.Time     `json:"time"`
}

// perTask couples static parameters with the per-host exponentially
// smoothed execution times the Site Manager writes back after runs.
// Records are frozen once their epoch is published; writers replace a
// record with a fresh copy and bump its generation.
type perTask struct {
	// gen changes whenever this task's record (params, smoothed times, or
	// history) changes — the ranked-host cache invalidates per task on it.
	gen      uint64
	Params   TaskParams
	Smoothed map[string]time.Duration // host -> smoothed measured time
	History  []Measurement
}

// perfEpoch is one immutable copy-on-write snapshot of the database.
type perfEpoch struct {
	gen   uint64
	tasks map[string]*perTask // records never mutate after publish
}

// TaskPerfDB is the task-performance database: performance
// characteristics for each task, used to predict the performance of a
// task on a given resource. Writers publish copy-on-write epochs;
// readers are lock-free pointer loads.
type TaskPerfDB struct {
	wmu   sync.Mutex // serializes writers only
	epoch atomic.Pointer[perfEpoch]
	// Alpha is the exponential smoothing weight for new measurements.
	Alpha float64
}

// maxHistory bounds the stored per-task measurement log.
const maxHistory = 128

// NewTaskPerfDB returns an empty task-performance database with smoothing
// weight 0.5.
func NewTaskPerfDB() *TaskPerfDB {
	db := &TaskPerfDB{Alpha: 0.5}
	db.epoch.Store(&perfEpoch{tasks: map[string]*perTask{}})
	return db
}

// mutate runs f over a private copy of the task map and publishes the
// result as a new epoch. f must replace (not modify) any record it
// changes, stamping it with the new epoch's generation (passed as gen).
func (db *TaskPerfDB) mutate(f func(m map[string]*perTask, gen uint64) error) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.epoch.Load()
	m := make(map[string]*perTask, len(cur.tasks)+1)
	for k, v := range cur.tasks {
		m[k] = v
	}
	gen := cur.gen + 1
	if err := f(m, gen); err != nil {
		return err
	}
	db.epoch.Store(&perfEpoch{gen: gen, tasks: m})
	return nil
}

// TaskGeneration returns the named task's record generation: it changes
// only when that task's parameters or measurements change, so cached
// per-task derivations (ranked-host lists) invalidate on exactly the
// writes that affect them. ok is false for unknown tasks.
func (db *TaskPerfDB) TaskGeneration(name string) (gen uint64, ok bool) {
	t, ok := db.epoch.Load().tasks[name]
	if !ok {
		return 0, false
	}
	return t.gen, true
}

// ErrUnknownTask is returned when a task has no performance record.
var ErrUnknownTask = errors.New("repository: unknown task")

// RegisterTask stores (or replaces) the static parameters of a task.
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
	return db.mutate(func(m map[string]*perTask, gen uint64) error {
		if existing, ok := m[p.Name]; ok {
			c := clonePerTask(existing, gen)
			c.Params = p
			m[p.Name] = c
			return nil
		}
		m[p.Name] = &perTask{gen: gen, Params: p, Smoothed: map[string]time.Duration{}}
		return nil
	})
}

// clonePerTask copies a record so the copy can be modified without
// touching the epochs that still reference the original. The smoothed
// map is copied (maps cannot be shared with a mutator); History is
// shared — appends go through the shared-tail chronicle in
// RecordExecution, which older windows never observe.
func clonePerTask(t *perTask, gen uint64) *perTask {
	c := &perTask{
		gen:      gen,
		Params:   t.Params,
		Smoothed: make(map[string]time.Duration, len(t.Smoothed)+1),
		History:  t.History,
	}
	for h, d := range t.Smoothed {
		c.Smoothed[h] = d
	}
	return c
}

// Params returns the static parameters of the named task.
func (db *TaskPerfDB) Params(name string) (TaskParams, error) {
	t, ok := db.epoch.Load().tasks[name]
	if !ok {
		return TaskParams{}, fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	return t.Params, nil
}

// Execution is one measured run of a task on a host: an element of a
// RecordExecutions batch, and the record a completed task sends the
// Site Manager (protocol.ExecutionRecord).
type Execution struct {
	Task    string
	Host    string
	Elapsed time.Duration
	At      time.Time
}

// RecordExecution is RecordExecutions for one measurement; it returns
// the error that kept the measurement out, if any.
func (db *TaskPerfDB) RecordExecution(task, host string, elapsed time.Duration, at time.Time) error {
	_, err := db.RecordExecutions([]Execution{{task, host, elapsed, at}}, nil)
	return err
}

// RecordExecutions folds a run's measured executions, in order, into the
// per-host smoothed estimates — this is the Site Manager's "updates the
// task-performance database with the execution time after an application
// execution is completed" — as ONE epoch, each distinct task cloned once.
// A non-nil mine selects the records this site's database takes (by
// host); the others are another site's. Of the selected ones, a record
// naming an unknown task or a negative elapsed time is dropped: applied
// counts the rest and err is the first drop's reason. With nothing
// applied no epoch is published.
func (db *TaskPerfDB) RecordExecutions(recs []Execution, mine func(host string) bool) (applied int, err error) {
	if mine != nil && !slices.ContainsFunc(recs, func(r Execution) bool { return mine(r.Host) }) {
		return 0, nil
	}
	drop := func(e error) {
		if err == nil {
			err = e
		}
	}
	_ = db.mutate(func(m map[string]*perTask, gen uint64) error {
		for _, rec := range recs {
			if mine != nil && !mine(rec.Host) {
				continue
			}
			t, ok := m[rec.Task]
			if !ok {
				drop(fmt.Errorf("%w: %s", ErrUnknownTask, rec.Task))
				continue
			}
			if rec.Elapsed < 0 {
				drop(fmt.Errorf("repository: negative elapsed for %s on %s", rec.Task, rec.Host))
				continue
			}
			if t.gen != gen { // first touch in this epoch
				t = clonePerTask(t, gen)
				m[rec.Task] = t
			}
			if prev, seen := t.Smoothed[rec.Host]; seen {
				a := db.Alpha
				t.Smoothed[rec.Host] = time.Duration(a*float64(rec.Elapsed) + (1-a)*float64(prev))
			} else {
				t.Smoothed[rec.Host] = rec.Elapsed
			}
			// Shared-tail chronicle append (see withSample in resources.go):
			// older epochs' windows end at or before the current tail, so
			// the append is invisible to them; trimming is a re-slice.
			t.History = append(t.History, Measurement{Host: rec.Host, Elapsed: rec.Elapsed, Time: rec.At})
			if len(t.History) > maxHistory {
				t.History = t.History[len(t.History)-maxHistory:]
			}
			applied++
		}
		if applied == 0 {
			return err // nothing changed: publish nothing
		}
		return nil
	})
	return applied, err
}

// MeasuredTime returns the smoothed measured execution time of task on
// host and whether any measurement exists.
func (db *TaskPerfDB) MeasuredTime(task, host string) (time.Duration, bool) {
	t, ok := db.epoch.Load().tasks[task]
	if !ok {
		return 0, false
	}
	d, ok := t.Smoothed[host]
	return d, ok
}

// History returns a copy of the stored measurement log for a task.
func (db *TaskPerfDB) History(task string) []Measurement {
	t, ok := db.epoch.Load().tasks[task]
	if !ok {
		return nil
	}
	return append([]Measurement(nil), t.History...)
}
