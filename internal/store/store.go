package store

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
	// Metrics, when non-nil, receives the store's instrumentation:
	// vdce_wal_append_seconds (hot-path framing latency, including any
	// backpressure wait), vdce_wal_fsync_batch_records (records per
	// group-committed fsync) and vdce_store_compactions_total{outcome}
	// (background compactions that finished "ok" or failed with "error").
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
//
// Graph is the application flow graph as JSON, as JobSubmitted takes it
// and Recovered hands it back. On disk and in the mirror a job cites its
// graph by GraphRef, an entry of the interned-graph table; only a log
// from before interning carries the bytes inline.
type JobRecord struct {
	ID          string            `json:"id"`
	Owner       string            `json:"owner,omitempty"`
	Graph       json.RawMessage   `json:"graph,omitempty"`
	GraphRef    uint64            `json:"gref,omitempty"`
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

// PerfRecord is one (task, host) estimate of the task-performance
// database: the smoothed execution time the Site Manager's write-back
// computed. The store keeps the newest record of each pair.
type PerfRecord struct {
	Task     string        `json:"task"`
	Host     string        `json:"host"`
	Smoothed time.Duration `json:"smoothed"`
}

// UnmarshalJSON reads a record of either shape. A log written before
// estimates were stored holds raw measurements ("elapsed", beside an
// ignored "at"), and each replays as its pair's estimate.
func (p *PerfRecord) UnmarshalJSON(b []byte) error {
	type plain PerfRecord // without this method
	var r struct {
		plain
		Elapsed time.Duration `json:"elapsed"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*p = PerfRecord(r.plain)
	if r.Elapsed != 0 {
		p.Smoothed = r.Elapsed
	}
	return nil
}

// perfKey names a (task, host) pair.
type perfKey struct{ task, host string }

// graphRecord is one entry of the interned-graph table: a graph's JSON
// under the reference number the jobs submitted with it cite.
type graphRecord struct {
	Ref   uint64          `json:"ref"`
	Graph json.RawMessage `json:"graph"`
	// jobs counts the mirror's jobs citing Ref; the entry is dropped
	// with the last of them.
	jobs int
}

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
	// Graphs is the interned-graph table, ascending by Ref: every graph a
	// retained job cites, once. Nil in the State Recovered returns, where
	// each job carries its own Graph again.
	Graphs []graphRecord `json:"graphs,omitempty"`
	// Jobs holds every retained job by ID.
	Jobs map[string]*JobRecord `json:"jobs,omitempty"`
	// Owners holds per-owner admin state by owner name.
	Owners map[string]OwnerRecord `json:"owners,omitempty"`
	// Perf holds the newest estimate of every (task, host) pair, in the
	// order the pairs were first stored.
	Perf []PerfRecord `json:"perf,omitempty"`
	// EventCursor is the persisted broker high-water mark.
	EventCursor uint64 `json:"event_cursor,omitempty"`

	// byGraph finds a table entry's Ref by the graph bytes themselves and
	// nextRef is the next number to hand out; perfAt finds a pair's
	// estimate in Perf. All are rebuilt on load.
	byGraph map[string]uint64
	nextRef uint64
	perfAt  map[perfKey]int
}

func newState() *State {
	st := &State{}
	st.normalize()
	return st
}

// normalize completes a State decoded from a snapshot (or an empty one):
// maps made, the graph table sorted and indexed, its entries' citation
// counts taken from the jobs.
func (st *State) normalize() {
	if st.Jobs == nil {
		st.Jobs = make(map[string]*JobRecord)
	}
	if st.Owners == nil {
		st.Owners = make(map[string]OwnerRecord)
	}
	slices.SortFunc(st.Graphs, func(a, b graphRecord) int { return cmp.Compare(a.Ref, b.Ref) })
	st.byGraph = make(map[string]uint64, len(st.Graphs))
	st.nextRef = 1
	for _, g := range st.Graphs {
		st.byGraph[string(g.Graph)] = g.Ref
		st.nextRef = g.Ref + 1
	}
	for _, j := range st.Jobs {
		st.citeGraph(j.GraphRef, 1)
	}
	perf := st.Perf
	st.Perf, st.perfAt = nil, make(map[perfKey]int, len(perf))
	for _, p := range perf {
		st.setPerf(p)
	}
}

// setPerf stores p as its pair's estimate.
func (st *State) setPerf(p PerfRecord) {
	k := perfKey{p.Task, p.Host}
	if i, ok := st.perfAt[k]; ok {
		st.Perf[i] = p
		return
	}
	st.perfAt[k] = len(st.Perf)
	st.Perf = append(st.Perf, p)
}

// record is the WAL's one on-disk record shape: a kind tag plus the
// fields that kind uses. Unknown kinds are skipped on replay — which is
// why a binary from before graph records must not be pointed at a log
// with them: it would skip them and recover jobs without graphs.
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
	// Ref and Graph are a graph record: one interned-graph table entry.
	Ref   uint64          `json:"ref,omitempty"`
	Graph json.RawMessage `json:"graph,omitempty"`
}

// Record kinds.
const (
	kindSubmit = "submit"
	kindState  = "state"
	kindDelete = "delete"
	kindOwner  = "owner"
	kindPerf   = "perf"
	kindHWM    = "hwm"
	kindGraph  = "graph"
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
	// enc is the scratch a record is encoded into before it is framed and
	// snap the last snapshot's buffer, parked between compactions.
	enc  []byte
	snap []byte

	// background is the compaction append started, if one is running;
	// Close and Abandon wait for it, so its file deletions cannot land in
	// a directory that has since been reopened. compactions counts them
	// by outcome (nil on an un-instrumented store).
	background  sync.WaitGroup
	compactions *obs.CounterVec

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
	// A graph record whose submit was torn off the tail cites nothing.
	for i := len(st.Graphs) - 1; i >= 0; i-- {
		st.citeGraph(st.Graphs[i].Ref, 0)
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
	// snapshots strictly below the loaded snapshot are dead weight, and so
	// is a snapshot that was written but never renamed into place.
	if tmps, err := filepath.Glob(filepath.Join(dir, "snap-*.json.tmp")); err == nil {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
	}
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
	if opt.Metrics != nil {
		s.compactions = opt.Metrics.Counter("vdce_store_compactions_total",
			"Background WAL compactions (snapshot + segment rotation) by outcome; an error leaves the log untrimmed.", "outcome")
		s.compactions.With("ok")
		s.compactions.With("error")
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
		st.apply(&rec)
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
func (st *State) apply(rec *record) {
	switch rec.Kind {
	case kindGraph:
		// A ref the table already holds is the same entry seen twice (the
		// snapshot and the segment after it both carry it).
		if i, held := st.findGraph(rec.Ref); !held && rec.Ref != 0 && len(rec.Graph) > 0 {
			st.Graphs = slices.Insert(st.Graphs, i, graphRecord{Ref: rec.Ref, Graph: rec.Graph})
			st.byGraph[string(rec.Graph)] = rec.Ref
			st.nextRef = max(st.nextRef, rec.Ref+1)
		}
	case kindSubmit:
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		// The mirror adopts the record's job: every caller hands apply one
		// it does not touch again.
		j := rec.Job
		st.citeGraph(j.GraphRef, 1)
		if old, ok := st.Jobs[j.ID]; ok {
			st.citeGraph(old.GraphRef, -1) // after the +1: both may cite one entry
		}
		st.Jobs[j.ID] = j
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
		if j, ok := st.Jobs[rec.JobID]; ok {
			st.citeGraph(j.GraphRef, -1)
			delete(st.Jobs, rec.JobID)
		}
	case kindOwner:
		if rec.Owner != nil && rec.Owner.Owner != "" {
			st.Owners[rec.Owner.Owner] = *rec.Owner
		}
	case kindPerf:
		if rec.Perf != nil {
			st.setPerf(*rec.Perf)
		}
		for _, p := range rec.Perfs {
			st.setPerf(p)
		}
	case kindHWM:
		if rec.Cursor > st.EventCursor {
			st.EventCursor = rec.Cursor
		}
	}
}

// findGraph returns where ref sits (or would be inserted) in the table.
func (st *State) findGraph(ref uint64) (int, bool) {
	return slices.BinarySearchFunc(st.Graphs, ref, func(g graphRecord, ref uint64) int { return cmp.Compare(g.Ref, ref) })
}

// citeGraph adds delta to the citation count of ref's entry and drops
// the entry with its last citation. A ref that is zero (no interned
// graph) or missing (the log lost it) counts nowhere.
func (st *State) citeGraph(ref uint64, delta int) {
	i, held := st.findGraph(ref)
	if !held {
		return
	}
	g := &st.Graphs[i]
	if g.jobs += delta; g.jobs > 0 {
		return
	}
	// A later entry with the same bytes keeps its place in the index.
	if st.byGraph[string(g.Graph)] == ref {
		delete(st.byGraph, string(g.Graph))
	}
	st.Graphs = slices.Delete(st.Graphs, i, i+1)
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

// clone deep-copies the state into its self-contained form: no graph
// table, every job carrying the graph it cites (one shared, read-only
// copy per table entry).
func (st *State) clone() *State {
	c := &State{
		MaxJobSeq:   st.MaxJobSeq,
		Jobs:        make(map[string]*JobRecord, len(st.Jobs)),
		Owners:      make(map[string]OwnerRecord, len(st.Owners)),
		EventCursor: st.EventCursor,
	}
	for id, j := range st.Jobs {
		cp := *j
		if i, held := st.findGraph(cp.GraphRef); held {
			cp.Graph = st.Graphs[i].Graph
		}
		cp.GraphRef = 0
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

// append folds the record into the mirror and frames it into the WAL
// under one lock hold, keeping mirror order identical to log order,
// then triggers a background compaction once enough records piled up.
func (s *Store) append(rec *record) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errWALClosed
	}
	if err := s.appendLocked(rec); err != nil {
		s.mu.Unlock()
		return err
	}
	compact := s.appends >= s.opt.CompactEvery && !s.compacting
	if compact {
		s.compacting = true
		s.background.Add(1)
	}
	s.mu.Unlock()
	if compact {
		go func() {
			defer s.background.Done()
			// Nobody takes this error, so the counter is where a failed
			// snapshot (and a log that stopped being trimmed) shows.
			outcome := "ok"
			if s.Compact() != nil {
				outcome = "error"
			}
			s.mu.Lock()
			s.compacting = false
			s.mu.Unlock()
			if s.compactions != nil {
				s.compactions.With(outcome).Inc()
			}
		}()
	}
	return nil
}

// appendLocked is append's body, s.mu held: rec is encoded into the
// store's scratch buffer and framed from there. A submit carrying its
// graph inline is rewritten to cite the interned-graph table, behind —
// in this same lock hold — the graph record that defines the entry if
// the table did not have it.
func (s *Store) appendLocked(rec *record) error {
	if rec.Kind == kindSubmit && len(rec.Job.Graph) > 0 {
		ref, err := s.internLocked(rec.Job.Graph)
		if err != nil {
			return err
		}
		rec.Job.Graph, rec.Job.GraphRef = nil, ref
	}
	s.st.apply(rec)
	s.enc = appendRecord(s.enc[:0], rec)
	if err := s.w.append(s.enc); err != nil {
		return err
	}
	s.appends++
	return nil
}

// internLocked returns the table reference for graph, found by the bytes
// themselves (no digest stands in for them). One the table does not
// hold is copied — the caller's buffer stays the caller's — and logged.
func (s *Store) internLocked(graph []byte) (uint64, error) {
	if ref, ok := s.st.byGraph[string(graph)]; ok {
		return ref, nil
	}
	// Written verbatim, bytes that are not JSON would make the record
	// unreadable at the next replay.
	if !json.Valid(graph) {
		return 0, errors.New("store: job graph is not valid JSON")
	}
	ref := s.st.nextRef
	return ref, s.appendLocked(&record{Kind: kindGraph, Ref: ref, Graph: bytes.Clone(graph)})
}

// JobSubmitted persists a newly admitted job. j.Graph is read, not kept.
func (s *Store) JobSubmitted(j JobRecord) error {
	j.GraphRef = 0
	return s.append(&record{Kind: kindSubmit, Job: &j})
}

// JobState persists a lifecycle transition. Zero started/finished times
// leave the previously recorded ones in place.
func (s *Store) JobState(id, state, errMsg string, started, finished time.Time) error {
	return s.append(&record{Kind: kindState, JobID: id, State: state, Error: errMsg,
		StartedAt: started, FinishedAt: finished})
}

// JobDeleted persists a retention eviction, so the mirror does not grow
// past what the pipeline itself retains.
func (s *Store) JobDeleted(id string) error {
	return s.append(&record{Kind: kindDelete, JobID: id})
}

// OwnerUpdated persists one owner's admin state (pinned weight and/or
// quota caps); the record replaces any previous one for the owner.
func (s *Store) OwnerUpdated(o OwnerRecord) error {
	return s.append(&record{Kind: kindOwner, Owner: &o})
}

// PerfEstimated persists the estimates one run's write-back left, as one
// record; each replaces its pair's earlier estimate.
func (s *Store) PerfEstimated(ps ...PerfRecord) error {
	if len(ps) == 0 {
		return nil
	}
	return s.append(&record{Kind: kindPerf, Perfs: ps})
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
	return s.append(&record{Kind: kindHWM, Cursor: cur + EventCursorSlack})
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
	seg, err := s.w.rotate()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// Jobs a log from before interning left with their graphs inline are
	// appended again as they now stand, which interns the graph.
	for _, j := range s.st.Jobs {
		if len(j.Graph) == 0 {
			continue
		}
		again := *j
		if err := s.appendLocked(&record{Kind: kindSubmit, Job: &again}); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	// Encoded under the lock every append takes, so: appended, into the
	// previous snapshot's buffer.
	snap := appendState(s.snap[:0], s.st)
	s.snap = nil
	s.appends = 0
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.snap = snap
		s.mu.Unlock()
	}()

	tmp := filepath.Join(s.dir, snapshotName(seg)+".tmp")
	err = os.WriteFile(tmp, snap, 0o644)
	if err == nil {
		err = renameDurable(tmp, filepath.Join(s.dir, snapshotName(seg)), s.dir)
	}
	if err != nil {
		os.Remove(tmp)
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
	s.background.Wait()
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
	s.background.Wait()
	return s.w.close()
}
