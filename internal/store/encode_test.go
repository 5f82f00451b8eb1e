package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vdce/internal/frame"
	"vdce/internal/tasklib"
)

// encodeCorpus is one record of every kind, with what the encoders have
// to get right: labels that need sorting, strings json escapes, zero and
// non-UTC times, a job citing an interned graph and one carrying its own.
func encodeCorpus() []record {
	east := time.FixedZone("east", 5*3600+30*60)
	at := time.Date(2026, 10, 3, 9, 8, 7, 654321000, east)
	interned := &JobRecord{
		ID: "job-7", Owner: `o<w>&"ner `, GraphRef: 3, K: 2, Home: 1, Priority: 9, ShareWeight: 4,
		Labels:   map[string]string{"zone": "b", "app": "c3i", "<k>": "v&", "": "empty"},
		Deadline: at.Add(time.Hour), SubmittedAt: at, State: "running",
		Error: "line\nbreak  ", StartedAt: at.Add(time.Second).UTC(), FinishedAt: at.Add(2 * time.Second),
	}
	inline := &JobRecord{ID: "job-8", Graph: json.RawMessage(`{"name":"g","tasks":null}`), State: "queued"}
	perfs := []PerfRecord{
		{Task: "Data_Fusion", Host: "h<1>", Elapsed: 1500 * time.Microsecond, At: at},
		{Task: "", Host: "", Elapsed: -1},
	}
	return []record{
		{Kind: kindSubmit, Job: interned},
		{Kind: kindSubmit, Job: inline},
		{Kind: kindState, JobID: "job-7", State: "failed", Error: `core: no site can run task "x"`, StartedAt: at, FinishedAt: at.UTC()},
		{Kind: kindState, JobID: "job-7", State: "running"},
		{Kind: kindDelete, JobID: "job-7"},
		{Kind: kindOwner, Owner: &OwnerRecord{Owner: "a&b", Weight: 7, HasCaps: true, MaxQueued: 50, MaxInFlight: 4, MaxHosts: 2}},
		{Kind: kindOwner, Owner: &OwnerRecord{}},
		{Kind: kindPerf, Perfs: perfs},
		{Kind: kindPerf, Perf: &perfs[0]},
		{Kind: kindHWM, Cursor: 1<<64 - 1},
		{Kind: kindGraph, Ref: 3, Graph: json.RawMessage(`{"name":"g","tasks":[],"edges":[]}`)},
		{Kind: "future-kind"},
		{},
	}
}

// TestAppendJSONMatchesEncodingJSON pins the append encoders to the
// struct tags: for every record kind and for a populated State they must
// write exactly what json.Marshal writes, since json.Unmarshal over the
// same tags is the only reader.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	corpus := encodeCorpus()
	for i := range corpus {
		want, err := json.Marshal(&corpus[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecord(nil, &corpus[i]); !bytes.Equal(got, want) {
			t.Errorf("record %d (%s):\ngot  %s\nwant %s", i, corpus[i].Kind, got, want)
		}
	}

	st := newState()
	for i := range corpus {
		st.apply(&corpus[i])
	}
	st.apply(&record{Kind: kindSubmit, Job: corpus[0].Job}) // keeps the graph entry cited past the delete
	for i := 21; i <= 32; i++ {
		j := jobN(i, "owner-"+itoa(i%3), "done")
		j.Graph, j.GraphRef = nil, 3
		st.apply(&record{Kind: kindSubmit, Job: &j})
	}
	st.apply(&record{Kind: kindOwner, Owner: &OwnerRecord{Owner: "zed", Weight: 2}})
	if len(st.Graphs) != 1 || len(st.Jobs) != 14 || len(st.Owners) != 2 || len(st.Perf) == 0 || st.EventCursor == 0 {
		t.Fatalf("corpus did not populate the state: %+v", st)
	}
	for _, st := range []*State{st, newState()} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendState(nil, st); !bytes.Equal(got, want) {
			t.Errorf("state:\ngot  %s\nwant %s", got, want)
		}
	}
}

// writeFrames writes payloads as one segment or snapshot file would hold
// them.
func writeFrames(t *testing.T, path string, payloads ...string) {
	t.Helper()
	var buf []byte
	for _, p := range payloads {
		buf = frame.Append(buf, []byte(p))
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPreInterningStoreReplays: a snapshot and a segment in the shape
// written before graphs were interned — every job carrying its graph
// inline, no gref, no graphs table, one old single-measurement perf
// record — open to the State that shape always opened to; the first
// compaction rewrites the jobs interned, and the store reopens equal.
func TestPreInterningStoreReplays(t *testing.T) {
	const gA = `{"name":"A","tasks":[{"id":0,"name":"T","in_ports":0,"out_ports":0,"props":{"mode":0,"nodes":1}}],"edges":[]}`
	const gB = `{"name":"B","tasks":[{"id":0,"name":"T","in_ports":0,"out_ports":0,"props":{"mode":0,"nodes":1}}],"edges":[]}`
	dir := t.TempDir()
	snapshot := `{"max_job_seq":2,"jobs":{` +
		`"job-1":{"id":"job-1","owner":"alice","graph":` + gA + `,"priority":5,"submitted_at":"2026-08-01T12:00:01Z","state":"done","finished_at":"2026-08-01T12:00:09Z"},` +
		`"job-2":{"id":"job-2","owner":"bob","graph":` + gB + `,"submitted_at":"2026-08-01T12:00:02Z","state":"queued"}},` +
		`"owners":{"alice":{"owner":"alice","weight":3}},"event_cursor":65536}`
	if err := os.WriteFile(filepath.Join(dir, snapshotName(4)), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	writeFrames(t, filepath.Join(dir, segmentName(4)),
		`{"k":"submit","job":{"id":"job-3","owner":"alice","graph":`+gA+`,"labels":{"a":"b"},"submitted_at":"2026-08-01T12:00:03Z","state":"queued"}}`,
		`{"k":"state","id":"job-3","state":"running","started_at":"2026-08-01T12:00:04Z"}`,
		`{"k":"perf","perf":{"task":"T","host":"h1","elapsed":1000000,"at":"2026-08-01T12:00:05Z"}}`,
		`{"k":"delete","id":"job-2"}`,
	)

	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	want := &State{
		MaxJobSeq: 3,
		Jobs: map[string]*JobRecord{
			"job-1": {ID: "job-1", Owner: "alice", Graph: json.RawMessage(gA), Priority: 5, SubmittedAt: at(1), State: "done", FinishedAt: at(9)},
			"job-3": {ID: "job-3", Owner: "alice", Graph: json.RawMessage(gA), Labels: map[string]string{"a": "b"}, SubmittedAt: at(3), State: "running", StartedAt: at(4)},
		},
		Owners:      map[string]OwnerRecord{"alice": {Owner: "alice", Weight: 3}},
		Perf:        []PerfRecord{{Task: "T", Host: "h1", Elapsed: time.Millisecond, At: at(5)}},
		EventCursor: 65536,
	}

	s := openT(t, dir, Options{})
	if got := s.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("old-shape store recovered\n%+v\nwant\n%+v", got, want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}
	snaps, _, err := scanDir(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after compaction: %v, %v", snaps, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"name":"A"`)); n != 1 {
		t.Fatalf("graph A appears %d times in the rewritten snapshot, want once:\n%s", n, data)
	}
	if bytes.Contains(data, []byte(`"name":"B"`)) || !bytes.Contains(data, []byte(`"gref":1`)) {
		t.Fatalf("rewritten snapshot keeps a deleted job's graph or cites none:\n%s", data)
	}
	s = openT(t, dir, Options{})
	defer s.Abandon()
	if got := s.Recovered(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rewritten store recovered\n%+v\nwant\n%+v", got, want)
	}
}

// checkGraphTable asserts the mirror's table invariants: ascending
// refs, a citation count equal to a recount over the jobs, no entry
// nothing cites, no job citing a missing entry, and a content index that
// finds exactly the table's entries.
func checkGraphTable(t *testing.T, st *State) {
	t.Helper()
	cited := make(map[uint64]int)
	for id, j := range st.Jobs {
		if j.GraphRef == 0 {
			t.Fatalf("%s carries no graph reference", id)
		}
		if _, held := st.findGraph(j.GraphRef); !held {
			t.Fatalf("%s cites graph %d, which the table does not hold", id, j.GraphRef)
		}
		cited[j.GraphRef]++
	}
	var last uint64
	for _, g := range st.Graphs {
		if g.Ref <= last || g.Ref >= st.nextRef {
			t.Fatalf("table refs out of order or past nextRef %d: %d after %d", st.nextRef, g.Ref, last)
		}
		last = g.Ref
		if g.jobs != cited[g.Ref] || g.jobs == 0 {
			t.Fatalf("graph %d counts %d citations, the jobs hold %d", g.Ref, g.jobs, cited[g.Ref])
		}
		if st.byGraph[string(g.Graph)] != g.Ref {
			t.Fatalf("graph %d is not found by its bytes", g.Ref)
		}
	}
	if len(st.byGraph) != len(st.Graphs) {
		t.Fatalf("content index holds %d graphs, the table %d", len(st.byGraph), len(st.Graphs))
	}
}

// TestCrashEquivalenceInternedGraphs drives a fixed-seed stream of
// submissions (twelve shared graphs and some one-off ones), transitions,
// deletions, measurements and owner updates against a model, then tears
// the log at 200 random byte offsets: whatever prefix survives, every
// recovered job carries byte for byte the graph it was submitted with,
// no reference dangles, a graph record that lost its submit is dropped,
// and the citation counts equal a recount. Deleting every job empties
// the table, in memory and in the next snapshot.
func TestCrashEquivalenceInternedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphOf := func(name string) []byte {
		return []byte(`{"name":"` + name + `","tasks":[{"id":0,"name":"T","in_ports":0,"out_ports":0,"props":{"mode":0,"nodes":1}}],"edges":[]}`)
	}
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactEvery: 1 << 30})
	model := make(map[string][]byte) // every job ever submitted -> its graph
	var live []string
	buf := make([]byte, 0, 256) // reused across submissions, as the pipeline's pooled buffer is
	for op := 0; op < 600; op++ {
		var err error
		switch r := rng.Intn(10); {
		case r < 5:
			id := "job-" + itoa(len(model)+1)
			name := "shared-" + itoa(rng.Intn(12))
			if rng.Intn(5) == 0 {
				name = "unique-" + id
			}
			buf = append(buf[:0], graphOf(name)...)
			rec := jobN(len(model)+1, "owner-"+itoa(rng.Intn(3)), "queued")
			rec.Graph = buf
			err = s.JobSubmitted(rec)
			model[id] = graphOf(name)
			live = append(live, id)
		case r < 6 && len(live) > 0:
			// The same ID again with the same graph: one citation, not
			// none and not two.
			id := live[rng.Intn(len(live))]
			rec := jobN(1, "again", "queued")
			rec.ID, rec.Graph = id, model[id]
			err = s.JobSubmitted(rec)
		case r < 7 && len(live) > 0:
			err = s.JobState(live[rng.Intn(len(live))], "running", "", t0, time.Time{})
		case r < 8 && len(live) > 0:
			i := rng.Intn(len(live))
			err = s.JobDeleted(live[i])
			live = append(live[:i], live[i+1:]...)
		case r < 9:
			err = s.PerfMeasured(PerfRecord{Task: "T", Host: "h", Elapsed: time.Millisecond, At: t0})
		default:
			err = s.OwnerUpdated(OwnerRecord{Owner: "owner-" + itoa(rng.Intn(3)), Weight: 1 + rng.Intn(5)})
		}
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		checkGraphTable(t, s.st)
		s.mu.Unlock()
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}
	segment := filepath.Join(dir, segmentName(0))
	whole, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int{len(whole)}
	for len(cuts) < 200 {
		cuts = append(cuts, rng.Intn(len(whole)+1))
	}
	for _, cut := range cuts {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, segmentName(0)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openT(t, torn, Options{})
		checkGraphTable(t, r.st)
		for id, j := range r.Recovered().Jobs {
			if !bytes.Equal(j.Graph, model[id]) {
				t.Fatalf("cut at %d: %s recovered graph %s, submitted %s", cut, id, j.Graph, model[id])
			}
		}
		if cut == len(whole) && len(r.Recovered().Jobs) != len(live) {
			t.Fatalf("whole log recovered %d jobs, want %d", len(r.Recovered().Jobs), len(live))
		}
		// The reopened store keeps working on what it recovered: the same
		// graph again, then everything deleted.
		again := jobN(100000, "late", "queued")
		again.Graph = graphOf("shared-0")
		if err := r.JobSubmitted(again); err != nil {
			t.Fatal(err)
		}
		checkGraphTable(t, r.st)
		for id := range r.st.Jobs {
			if err := r.JobDeleted(id); err != nil {
				t.Fatal(err)
			}
		}
		if len(r.st.Graphs) != 0 || len(r.st.byGraph) != 0 {
			t.Fatalf("cut at %d: %d graphs (%d indexed) outlive their jobs", cut, len(r.st.Graphs), len(r.st.byGraph))
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, _, err := scanDir(torn)
		if err != nil || len(snaps) != 1 {
			t.Fatalf("snapshots after close: %v, %v", snaps, err)
		}
		data, err := os.ReadFile(filepath.Join(torn, snapshotName(snaps[0])))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"graphs"`)) || bytes.Contains(data, []byte(`"name"`)) {
			t.Fatalf("cut at %d: the snapshot of an empty store still carries graphs: %s", cut, data)
		}
	}
}

// TestInternRefusesWhatIsNotJSON: graph bytes are written verbatim, so
// bytes that are not JSON are refused at the door instead of becoming a
// record replay cannot read.
func TestInternRefusesWhatIsNotJSON(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	bad := jobN(1, "alice", "queued")
	bad.Graph = []byte(`{"name":`)
	if err := s.JobSubmitted(bad); err == nil {
		t.Fatal("a truncated graph was accepted")
	}
	if err := s.JobSubmitted(jobN(2, "alice", "queued")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	s = openT(t, dir, Options{})
	defer s.Abandon()
	if jobs := s.Recovered().Jobs; len(jobs) != 1 || jobs["job-2"] == nil {
		t.Fatalf("recovered %v, want job-2 alone", jobs)
	}
}

// TestStoreAppendAllocBudget pins what the log costs a job: lifecycle
// transitions, deletions and a run's measurements allocate nothing, a
// submission of a graph the store has seen only the record the mirror
// keeps, encoding the graph into a warm buffer nothing — and a compaction
// over 1,024 retained C3I jobs at most a few hundred allocations and a
// few milliseconds of the store's lock, not the ten thousand and 33 ms of
// a reflected marshal of the whole mirror.
func TestStoreAppendAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts change under the race detector")
	}
	g, err := tasklib.BuildC3IPipeline(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	graph := g.AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { graph = g.AppendJSON(graph[:0]) }); n != 0 {
		t.Errorf("Graph.AppendJSON into a warm buffer: %v allocations, want 0", n)
	}

	s := openT(t, t.TempDir(), Options{CompactEvery: 1 << 30})
	defer s.Abandon()
	const retained = 1024
	ids := make([]string, 4*retained)
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%d", i+1)
	}
	now := time.Now()
	rec := JobRecord{Owner: "user_k", Graph: graph, Priority: 5, ShareWeight: 5, SubmittedAt: now, State: "queued"}
	perfs := make([]PerfRecord, 6)
	for i := range perfs {
		perfs[i] = PerfRecord{Task: g.Tasks[i].Name, Host: "host-" + itoa(i), Elapsed: time.Millisecond, At: now}
	}
	next := 0 // ids[:next] have been submitted
	submit := func() {
		rec.ID = ids[next]
		next++
		if err := s.JobSubmitted(rec); err != nil {
			t.Fatal(err)
		}
	}
	for next < retained {
		submit()
		if err := s.JobState(rec.ID, "done", "", now, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PerfMeasured(perfs...); err != nil { // grows the scratch buffer to its largest record
		t.Fatal(err)
	}

	var i, gone int
	for _, c := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"JobState", 0, func() { s.JobState(ids[retained/2+i%64], "running", "", now, time.Time{}); i++ }},
		{"PerfMeasured(6)", 0, func() { s.PerfMeasured(perfs...) }},
		{"JobDeleted", 0, func() { s.JobDeleted(ids[gone]); gone++ }},
		{"JobSubmitted", 1, submit},
	} {
		if n := testing.AllocsPerRun(200, c.op); n > c.max {
			t.Errorf("%s: %v allocations, budget %v", c.name, n, c.max)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(s.st.Jobs) != retained || len(s.st.Graphs) != 1 {
		t.Fatalf("mirror holds %d jobs and %d graphs, want %d and 1", len(s.st.Jobs), len(s.st.Graphs), retained)
	}

	if err := s.Compact(); err != nil { // sizes the snapshot buffer
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}); n > 256 {
		t.Errorf("Compact over %d jobs: %v allocations, budget 256", retained, n)
	}
	// What Compact does under the lock every append takes, timed alone;
	// the quickest of five, so a busy box does not fail it.
	held := time.Hour
	var size int
	for range 5 {
		s.mu.Lock()
		start := time.Now()
		s.snap = appendState(s.snap[:0], s.st)
		held = min(held, time.Since(start))
		size = len(s.snap)
		s.mu.Unlock()
	}
	t.Logf("snapshot of %d C3I jobs: %d bytes, encoded in %v under the lock", retained, size, held)
	if size > 500<<10 {
		t.Errorf("snapshot of %d jobs is %d bytes, over 500 KB", retained, size)
	}
	if held > 3*time.Millisecond {
		t.Errorf("snapshot encode held the lock %v, over 3 ms", held)
	}
}
