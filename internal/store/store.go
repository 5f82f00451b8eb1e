package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vdce/internal/frame"
	"vdce/internal/obs"
)

// Options tunes a Store. The zero value takes the listed defaults.
type Options struct {
	// FlushInterval is the group-commit window: how long appended
	// records may sit in memory before the committer writes and fsyncs
	// them as one batch. Default 2ms.
	FlushInterval time.Duration
	// CompactEvery is how many appended records trigger a background
	// compaction (snapshot + segment rotation + old-file cleanup).
	// Default 4096.
	CompactEvery int
	// Metrics, when non-nil, receives the WAL's instrumentation:
	// vdce_wal_append_seconds (hot-path framing latency, including any
	// backpressure wait) and vdce_wal_fsync_batch_records (records per
	// group-committed fsync).
	Metrics *obs.Registry
}

func (o *Options) fillDefaults() {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 2 * time.Millisecond
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
}

// JobRecord is one job's persisted lifecycle: everything recovery needs
// to re-admit a queued job exactly as it was (owner, priority, share
// weight, deadline, home site, labels, graph) or to retain a terminal
// one for listings. Allocation tables and execution results are not
// persisted — a recovered in-flight job re-runs its scheduling round
// against current resource state instead of trusting a pre-crash
// placement.
type JobRecord struct {
	ID          string            `json:"id"`
	Owner       string            `json:"owner,omitempty"`
	Graph       json.RawMessage   `json:"graph"`
	K           int               `json:"k,omitempty"`
	Home        int               `json:"home,omitempty"`
	Priority    int               `json:"priority,omitempty"`
	ShareWeight int               `json:"share_weight,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	Deadline    time.Time         `json:"deadline,omitzero"`
	SubmittedAt time.Time         `json:"submitted_at"`
	State       string            `json:"state"`
	Error       string            `json:"error,omitempty"`
	StartedAt   time.Time         `json:"started_at,omitzero"`
	FinishedAt  time.Time         `json:"finished_at,omitzero"`
}

// OwnerRecord is one owner's persisted admin state: an admin-pinned
// fair-share weight (0 = none pinned) and, when HasCaps is set,
// per-owner quota caps overriding the site-wide configuration.
type OwnerRecord struct {
	Owner       string `json:"owner"`
	Weight      int    `json:"weight,omitempty"`
	HasCaps     bool   `json:"has_caps,omitempty"`
	MaxQueued   int    `json:"max_queued,omitempty"`
	MaxInFlight int    `json:"max_in_flight,omitempty"`
	MaxHosts    int    `json:"max_hosts,omitempty"`
}

// PerfRecord is one task-performance measurement (the Site Manager's
// write-back after an application execution). Replay feeds them back
// through RecordExecutions in order, rebuilding the smoothed estimates.
type PerfRecord struct {
	Task    string        `json:"task"`
	Host    string        `json:"host"`
	Elapsed time.Duration `json:"elapsed"`
	At      time.Time     `json:"at"`
}

// maxPerfPerTask bounds the snapshot's retained measurement history per
// task, mirroring the task-performance database's own history cap.
const maxPerfPerTask = 128

// EventCursorSlack is how far beyond the observed broker cursor the
// persisted high-water mark is advanced — one hwm record per slack
// window of events, not one per event. After a restart the broker
// resumes above the mark, so any cursor issued before the crash is
// strictly below every new one and stale SSE resumes are detectable.
const EventCursorSlack = 65536

// State is the materialized store: the fold of the latest snapshot plus
// every replayed record. Recovery reads it once at boot.
type State struct {
	// MaxJobSeq is the highest job-ID sequence number ever persisted
	// ("job-17" -> 17); the pipeline resumes its ID counter above it so
	// recovered and new jobs never collide.
	MaxJobSeq int `json:"max_job_seq,omitempty"`
	// Jobs holds every retained job by ID.
	Jobs map[string]*JobRecord `json:"jobs,omitempty"`
	// Owners holds per-owner admin state by owner name.
	Owners map[string]OwnerRecord `json:"owners,omitempty"`
	// Perf is the measurement history, oldest first, bounded per task.
	Perf []PerfRecord `json:"perf,omitempty"`
	// EventCursor is the persisted broker high-water mark.
	EventCursor uint64 `json:"event_cursor,omitempty"`
}

func newState() *State {
	return &State{Jobs: make(map[string]*JobRecord), Owners: make(map[string]OwnerRecord)}
}

func (st *State) normalize() {
	if st.Jobs == nil {
		st.Jobs = make(map[string]*JobRecord)
	}
	if st.Owners == nil {
		st.Owners = make(map[string]OwnerRecord)
	}
}

// record is the WAL's one on-disk record shape: a kind tag plus the
// fields that kind uses. Unknown kinds are skipped on replay, so older
// binaries can read logs written by newer ones.
type record struct {
	Kind       string       `json:"k"`
	Job        *JobRecord   `json:"job,omitempty"`
	JobID      string       `json:"id,omitempty"`
	State      string       `json:"state,omitempty"`
	Error      string       `json:"error,omitempty"`
	StartedAt  time.Time    `json:"started_at,omitzero"`
	FinishedAt time.Time    `json:"finished_at,omitzero"`
	Owner      *OwnerRecord `json:"owner,omitempty"`
	Perf       *PerfRecord  `json:"perf,omitempty"` // read only: logs from before Perfs
	Perfs      []PerfRecord `json:"perfs,omitempty"`
	Cursor     uint64       `json:"cursor,omitempty"`
}

// Record kinds.
const (
	kindSubmit = "submit"
	kindState  = "state"
	kindDelete = "delete"
	kindOwner  = "owner"
	kindPerf   = "perf"
	kindHWM    = "hwm"
)

// Store is the durable control plane: typed appends fold into an
// in-memory mirror and frame into the group-committed WAL, and
// compaction periodically collapses the log into a snapshot. All
// methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options
	w   *wal

	mu         sync.Mutex
	st         *State
	appends    int
	compacting bool
	closed     bool

	// recovered is the deep copy of the state as of Open, handed to the
	// boot path; the live mirror keeps evolving underneath it.
	recovered *State
}

// Open loads (or initializes) the store directory: latest snapshot,
// replayed log tail, committer started. A torn final record is
// truncated; corruption before the tail returns a *CorruptError.
func Open(dir string, opt Options) (*Store, error) {
	opt.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	st := newState()
	var base uint64
	if len(snaps) > 0 {
		base = snaps[len(snaps)-1]
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(base)))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, st); err != nil {
			return nil, fmt.Errorf("store: snapshot %s: %w", snapshotName(base), err)
		}
		st.normalize()
	}

	// Replay segments at or above the snapshot base, oldest first. Only
	// the final segment may end in a torn record.
	live := make([]uint64, 0, len(segs))
	for _, n := range segs {
		if n >= base {
			live = append(live, n)
		}
	}
	for i, n := range live {
		if err := replaySegment(dir, n, st, i == len(live)-1); err != nil {
			return nil, err
		}
	}

	// Open (or create) the current segment for appending.
	cur := base
	if len(live) > 0 {
		cur = live[len(live)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(cur)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}

	// Clean up files a crashed compaction left behind: segments and
	// snapshots strictly below the loaded snapshot are dead weight.
	for _, n := range segs {
		if n < base {
			os.Remove(filepath.Join(dir, segmentName(n)))
		}
	}
	for _, n := range snaps {
		if n < base {
			os.Remove(filepath.Join(dir, snapshotName(n)))
		}
	}

	s := &Store{
		dir:       dir,
		opt:       opt,
		w:         newWAL(dir, cur, f, opt.FlushInterval, opt.Metrics),
		st:        st,
		recovered: st.clone(),
	}
	return s, nil
}

// scanDir lists snapshot and segment numbers present in dir, each
// sorted ascending.
func scanDir(dir string) (snaps, segs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if n, ok := parseNumbered(name, "snap-", ".json"); ok {
			snaps = append(snaps, n)
		} else if n, ok := parseNumbered(name, "wal-", ".log"); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, nil
}

func parseNumbered(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// replaySegment folds one segment's records into st. In the final
// segment a trailing incomplete frame is a torn group commit: the file
// is truncated back to the last whole record. Anywhere else, or on a
// checksum failure with valid data after it ruled out, replay stops
// with a typed corruption error.
func replaySegment(dir string, n uint64, st *State, final bool) error {
	path := filepath.Join(dir, segmentName(n))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		payload, consumed, err := frame.Decode(data[off:])
		if err != nil {
			if final && tornTail(data[off:], err) {
				// Torn tail: drop the partial frame and keep going from
				// here on restart.
				return os.Truncate(path, int64(off))
			}
			reason := "truncated mid-log"
			switch err {
			case frame.ErrLength:
				reason = "length"
			case frame.ErrChecksum:
				reason = "checksum"
			}
			return &CorruptError{Path: path, Offset: int64(off), Reason: reason}
		}
		var rec record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return &CorruptError{Path: path, Offset: int64(off), Reason: "payload"}
		}
		st.apply(rec)
		off += consumed
	}
	return nil
}

// tornTail reports whether a decode failure at the end of the final
// segment is attributable to a torn write rather than corruption: the
// buffer simply ends before the frame does (a partial append), or the
// checksum fails on a frame that ends exactly at end-of-file (a tail
// whose size landed before its data — delayed allocation). A checksum
// or length failure with bytes beyond the frame is real corruption.
func tornTail(rest []byte, err error) bool {
	if err == frame.ErrShort {
		return true
	}
	return err == frame.ErrChecksum && len(rest) >= frame.HeaderSize &&
		frame.HeaderSize+frame.PayloadLen(rest) == len(rest)
}

// apply folds one record into the state. Unknown kinds are ignored.
func (st *State) apply(rec record) {
	switch rec.Kind {
	case kindSubmit:
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		j := *rec.Job
		st.Jobs[j.ID] = &j
		if seq, ok := jobSeq(j.ID); ok && seq > st.MaxJobSeq {
			st.MaxJobSeq = seq
		}
	case kindState:
		j, ok := st.Jobs[rec.JobID]
		if !ok {
			return
		}
		j.State = rec.State
		j.Error = rec.Error
		if !rec.StartedAt.IsZero() {
			j.StartedAt = rec.StartedAt
		}
		if !rec.FinishedAt.IsZero() {
			j.FinishedAt = rec.FinishedAt
		}
	case kindDelete:
		delete(st.Jobs, rec.JobID)
	case kindOwner:
		if rec.Owner != nil && rec.Owner.Owner != "" {
			st.Owners[rec.Owner.Owner] = *rec.Owner
		}
	case kindPerf:
		if rec.Perf != nil {
			st.Perf = append(st.Perf, *rec.Perf)
		}
		st.Perf = append(st.Perf, rec.Perfs...)
	case kindHWM:
		if rec.Cursor > st.EventCursor {
			st.EventCursor = rec.Cursor
		}
	}
}

// jobSeq parses the numeric suffix of a pipeline job ID ("job-17").
func jobSeq(id string) (int, bool) {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// clone deep-copies the state.
func (st *State) clone() *State {
	c := &State{
		MaxJobSeq:   st.MaxJobSeq,
		Jobs:        make(map[string]*JobRecord, len(st.Jobs)),
		Owners:      make(map[string]OwnerRecord, len(st.Owners)),
		EventCursor: st.EventCursor,
	}
	for id, j := range st.Jobs {
		cp := *j
		c.Jobs[id] = &cp
	}
	for o, r := range st.Owners {
		c.Owners[o] = r
	}
	c.Perf = append(c.Perf, st.Perf...)
	return c
}

// SortedJobs returns the state's jobs ordered by (submission time, then
// job sequence) — the canonical admission order recovery re-admits in.
func (st *State) SortedJobs() []*JobRecord {
	out := make([]*JobRecord, 0, len(st.Jobs))
	for _, j := range st.Jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].SubmittedAt.Equal(out[j].SubmittedAt) {
			return out[i].SubmittedAt.Before(out[j].SubmittedAt)
		}
		si, _ := jobSeq(out[i].ID)
		sj, _ := jobSeq(out[j].ID)
		return si < sj
	})
	return out
}

// Recovered returns the state as of Open. The boot path reads it once,
// single-threaded; it does not track later appends.
func (s *Store) Recovered() *State { return s.recovered }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// append folds the record into the mirror and frames it into the WAL
// under one lock hold, keeping mirror order identical to log order,
// then triggers a background compaction once enough records piled up.
func (s *Store) append(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errWALClosed
	}
	s.st.apply(rec)
	if err := s.w.append(payload); err != nil {
		s.mu.Unlock()
		return err
	}
	s.appends++
	compact := s.appends >= s.opt.CompactEvery && !s.compacting
	if compact {
		s.compacting = true
	}
	s.mu.Unlock()
	if compact {
		go func() {
			defer func() {
				s.mu.Lock()
				s.compacting = false
				s.mu.Unlock()
			}()
			_ = s.Compact()
		}()
	}
	return nil
}

// JobSubmitted persists a newly admitted job.
func (s *Store) JobSubmitted(j JobRecord) error {
	return s.append(record{Kind: kindSubmit, Job: &j})
}

// JobState persists a lifecycle transition. Zero started/finished times
// leave the previously recorded ones in place.
func (s *Store) JobState(id, state, errMsg string, started, finished time.Time) error {
	return s.append(record{Kind: kindState, JobID: id, State: state, Error: errMsg,
		StartedAt: started, FinishedAt: finished})
}

// JobDeleted persists a retention eviction, so the mirror does not grow
// past what the pipeline itself retains.
func (s *Store) JobDeleted(id string) error {
	return s.append(record{Kind: kindDelete, JobID: id})
}

// OwnerUpdated persists one owner's admin state (pinned weight and/or
// quota caps); the record replaces any previous one for the owner.
func (s *Store) OwnerUpdated(o OwnerRecord) error {
	return s.append(record{Kind: kindOwner, Owner: &o})
}

// PerfMeasured persists one run's task-performance measurements, in
// order, as one record.
func (s *Store) PerfMeasured(ps ...PerfRecord) error {
	if len(ps) == 0 {
		return nil
	}
	return s.append(record{Kind: kindPerf, Perfs: ps})
}

// NoteEventCursor advances the persisted broker high-water mark: when
// cur crosses the current mark, a new mark of cur+EventCursorSlack is
// appended — one write per slack window, not per event.
func (s *Store) NoteEventCursor(cur uint64) error {
	s.mu.Lock()
	if cur < s.st.EventCursor {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return s.append(record{Kind: kindHWM, Cursor: cur + EventCursorSlack})
}

// EventCursor returns the mirror's current persisted high-water mark.
func (s *Store) EventCursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.EventCursor
}

// Err returns the log's sticky first I/O error: once a write, fsync or
// segment rotation has failed, nothing appended since is durable and
// every later append fails with the same error. Nil on a healthy store
// (a store that was merely closed has not failed).
func (s *Store) Err() error {
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	return s.w.err
}

// Sync blocks until every record appended so far is fsynced.
func (s *Store) Sync() error { return s.w.sync() }

// Compact collapses the log: rotate to a fresh segment, snapshot the
// mirror as of the rotation point, then delete the segments and
// snapshots the new snapshot supersedes. Crash-safe at every step — a
// crash before the snapshot lands replays the old segments; a crash
// before the deletions leaves stale files Open cleans up.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errWALClosed
	}
	s.prunePerfLocked()
	seg, err := s.w.rotate()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	snap, err := json.Marshal(s.st)
	s.appends = 0
	s.mu.Unlock()
	if err != nil {
		return err
	}

	tmp := filepath.Join(s.dir, snapshotName(seg)+".tmp")
	if err := os.WriteFile(tmp, snap, 0o644); err != nil {
		return err
	}
	if err := renameDurable(tmp, filepath.Join(s.dir, snapshotName(seg)), s.dir); err != nil {
		return err
	}
	snaps, segs, err := scanDir(s.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n < seg {
			os.Remove(filepath.Join(s.dir, segmentName(n)))
		}
	}
	for _, n := range snaps {
		if n < seg {
			os.Remove(filepath.Join(s.dir, snapshotName(n)))
		}
	}
	return nil
}

// renameDurable renames tmp into place and fsyncs the file and its
// directory, so the snapshot either exists whole or not at all.
func renameDurable(tmp, dst, dir string) error {
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	return syncDir(dir)
}

// prunePerfLocked trims the mirror's measurement history to the last
// maxPerfPerTask entries per task (what the task-performance database
// itself retains), keeping snapshot size bounded. Caller holds s.mu.
func (s *Store) prunePerfLocked() {
	counts := make(map[string]int)
	for _, p := range s.st.Perf {
		counts[p.Task]++
	}
	over := false
	for _, c := range counts {
		if c > maxPerfPerTask {
			over = true
			break
		}
	}
	if !over {
		return
	}
	kept := make([]PerfRecord, 0, len(s.st.Perf))
	taken := make(map[string]int, len(counts))
	for i := len(s.st.Perf) - 1; i >= 0; i-- {
		p := s.st.Perf[i]
		if taken[p.Task] >= maxPerfPerTask {
			continue
		}
		taken[p.Task]++
		kept = append(kept, p)
	}
	// kept is newest-first; restore chronological order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	s.st.Perf = kept
}

// Close is the graceful shutdown: compact (final snapshot, including
// the latest event high-water mark), then stop the committer and close
// the segment. The jobs the mirror holds as queued or running stay that
// way on disk — recovery re-admits them — because the pipeline
// suppresses persistence of shutdown-induced terminal transitions.
func (s *Store) Close() error {
	cerr := s.Compact()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	werr := s.w.close()
	if cerr != nil {
		return cerr
	}
	return werr
}

// Abandon is the SIGKILL-equivalent teardown (tests, the chaos
// scenario): flush the user-space batch to the OS and stop, with no
// compaction and no graceful records. What the group-commit window had
// not yet accepted is lost, exactly as a real crash would lose it.
func (s *Store) Abandon() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.w.close()
}
