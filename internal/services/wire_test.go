package services

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"vdce/internal/jsonw"
)

// The reference for the wire form is encoding/json over the struct
// tags: AppendJSON must produce the same bytes, and what it produces
// must decode back to the same value.

func wireCorpus() []JobStatus {
	utc := time.Date(2026, 9, 28, 12, 30, 45, 123456789, time.UTC)
	east := time.FixedZone("east", 5*3600+30*60)
	west := time.FixedZone("", -8*3600)
	full := JobStatus{
		ID: "job-42", App: "c3i-8", Owner: "user_k", State: JobStateDone,
		Priority: 7, ShareWeight: 3, HostsHeld: 2, QueuePosition: 5,
		Labels:      map[string]string{"zeta": "z", "alpha": "a", "mid": "m"},
		Reschedules: 2, FailedHosts: []string{"h-03", "h-01"}, Recovered: true,
		Deadline: utc.Add(time.Minute), SubmittedAt: utc,
		StartedAt: utc.Add(time.Millisecond), FinishedAt: utc.Add(2 * time.Millisecond),
		Error: "vdce: job canceled",
		Timings: &JobTimings{
			SubmittedAt: utc, AdmittedAt: utc.Add(10 * time.Microsecond),
			ScheduledAt: utc.Add(20 * time.Microsecond), DispatchedAt: utc.Add(30 * time.Microsecond),
			RunningAt: utc.Add(time.Millisecond), FinishedAt: utc.Add(2 * time.Millisecond),
			SubmitWaitSeconds: 1e-05, QueueWaitSeconds: 0.00001234, DispatchWaitSeconds: 0.5,
			RunSeconds: 0.001, TotalSeconds: 0.002,
		},
	}
	out := []JobStatus{
		{},
		{ID: "job-1", App: "les", State: JobStateQueued, SubmittedAt: utc, QueuePosition: 1},
		full,
		{ID: "neg", App: "a", State: JobStateFailed, Priority: -3, ShareWeight: -1, SubmittedAt: utc.In(east),
			StartedAt: utc.In(west), FinishedAt: utc.Truncate(time.Second),
			Timings: &JobTimings{}},
		{ID: `<id>&"q"\`, App: "tab\there\nnl\rcr\bbs\fff\x00nul\x1fus\x7fdel", Owner: "\u2028sep\u2029",
			State: "bad\xffutf8\xc3", Error: "caf\u00e9 \U0001F600 </script>",
			Labels:      map[string]string{"": "", "<k>": "&v", "k\xff": "\u2028"},
			FailedHosts: []string{"", "<h>", "h\xfe"},
			SubmittedAt: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)},
		{ID: "floats", App: "a", State: JobStateDone, SubmittedAt: time.Unix(0, 0).UTC(),
			Timings: &JobTimings{
				SubmitWaitSeconds: 1e-7, QueueWaitSeconds: 9.99e-7, DispatchWaitSeconds: 1e21,
				RunSeconds: 1.5e300, TotalSeconds: 123456789.125,
			}},
		{ID: "floats2", App: "a", State: JobStateDone, SubmittedAt: time.Unix(1, 0),
			Timings: &JobTimings{
				SubmitWaitSeconds: math.SmallestNonzeroFloat64, QueueWaitSeconds: 999999999999999999999,
				DispatchWaitSeconds: -2.5e-9, RunSeconds: math.Copysign(0, -1), TotalSeconds: 1e-6,
			}},
		{ID: "many-labels", App: "a", State: JobStateRunning, SubmittedAt: utc,
			Labels: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5", "f": "6", "g": "7", "h": "8", "i": "9", "j": "10"}},
		{ID: "empties", App: "a", State: JobStateRunning, SubmittedAt: utc,
			Labels: map[string]string{}, FailedHosts: []string{}},
	}
	// Every optional field of the full status cleared on its own.
	for _, clear := range []func(*JobStatus){
		func(s *JobStatus) { s.Owner = "" },
		func(s *JobStatus) { s.ShareWeight = 0 },
		func(s *JobStatus) { s.HostsHeld = 0 },
		func(s *JobStatus) { s.QueuePosition = 0 },
		func(s *JobStatus) { s.Labels = nil },
		func(s *JobStatus) { s.Reschedules = 0 },
		func(s *JobStatus) { s.FailedHosts = nil },
		func(s *JobStatus) { s.Recovered = false },
		func(s *JobStatus) { s.Deadline = time.Time{} },
		func(s *JobStatus) { s.StartedAt = time.Time{} },
		func(s *JobStatus) { s.FinishedAt = time.Time{} },
		func(s *JobStatus) { s.Error = "" },
		func(s *JobStatus) { s.Timings = nil },
		func(s *JobStatus) { t := *s.Timings; t.SubmittedAt = time.Time{}; s.Timings = &t },
		func(s *JobStatus) { t := *s.Timings; t.FinishedAt, t.TotalSeconds = time.Time{}, 0; s.Timings = &t },
		func(s *JobStatus) { s.Timings = &JobTimings{TotalSeconds: 3} },
	} {
		s := full
		clear(&s)
		out = append(out, s)
	}
	return out
}

// checkWire asserts the two properties for one status; statuses
// encoding/json refuses (a year beyond 9999) have no reference form.
func checkWire(t *testing.T, s JobStatus) {
	t.Helper()
	got := s.AppendJSON(nil)
	want, err := json.Marshal(s)
	if err != nil {
		t.Skipf("no reference: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal\n got: %s\nwant: %s", got, want)
	}
	if prefixed := s.AppendJSON([]byte("data: ")); !bytes.Equal(prefixed[6:], want) {
		t.Fatalf("AppendJSON into a non-empty buffer: %s", prefixed)
	}
	var viaRef, viaWire JobStatus
	if err := json.Unmarshal(want, &viaRef); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &viaWire); err != nil {
		t.Fatalf("AppendJSON output does not decode: %v\n%s", err, got)
	}
	if !reflect.DeepEqual(viaWire, viaRef) {
		t.Fatalf("decoded wire form %+v, reference %+v", viaWire, viaRef)
	}
}

func TestJobStatusAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, s := range wireCorpus() {
		t.Run(s.ID, func(t *testing.T) { checkWire(t, s) })
	}
}

// TestJobStatusWireRoundTrip: for statuses whose strings are valid UTF-8
// (what the pipeline produces) decoding the wire form gives the status
// back, instant for instant.
func TestJobStatusWireRoundTrip(t *testing.T) {
	for _, s := range wireCorpus() {
		if s.ID == `<id>&"q"\` || s.ID == "empties" || s.ID == "floats2" {
			continue // invalid UTF-8, empty-vs-nil and -0 do not survive any JSON trip
		}
		var back JobStatus
		if err := json.Unmarshal(s.AppendJSON(nil), &back); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !statusEqual(back, s) {
			t.Fatalf("%s: round trip\n got %+v\nwant %+v", s.ID, back, s)
		}
	}
}

// statusEqual compares statuses with timestamps by instant (a decoded
// time carries a different *Location than the one that was encoded).
func statusEqual(a, b JobStatus) bool {
	ta, tb := a.Timings, b.Timings
	if (ta == nil) != (tb == nil) {
		return false
	}
	if ta != nil {
		x, y := *ta, *tb
		for _, p := range [][2]*time.Time{
			{&x.SubmittedAt, &y.SubmittedAt}, {&x.AdmittedAt, &y.AdmittedAt}, {&x.ScheduledAt, &y.ScheduledAt},
			{&x.DispatchedAt, &y.DispatchedAt}, {&x.RunningAt, &y.RunningAt}, {&x.FinishedAt, &y.FinishedAt},
		} {
			if !p[0].Equal(*p[1]) {
				return false
			}
			*p[0], *p[1] = time.Time{}, time.Time{}
		}
		if x != y {
			return false
		}
	}
	for _, p := range [][2]*time.Time{
		{&a.Deadline, &b.Deadline}, {&a.SubmittedAt, &b.SubmittedAt},
		{&a.StartedAt, &b.StartedAt}, {&a.FinishedAt, &b.FinishedAt},
	} {
		if !p[0].Equal(*p[1]) {
			return false
		}
		*p[0], *p[1] = time.Time{}, time.Time{}
	}
	a.Timings, b.Timings = nil, nil
	return reflect.DeepEqual(a, b)
}

func FuzzJobStatusJSON(f *testing.F) {
	f.Add("job-1", "c3i", "user_k", "done", "vdce: <err> & \u2028", "k\xff", 7, 3, int64(1790598645123456789), 19800, 1.5e-7, 2e21, true)
	f.Add("", "", "", "", "", "", 0, 0, int64(0), 0, 0.0, 0.0, false)
	f.Add("\x00\x1f\x7f", "\"\\", "<>&", "\u2029", "\xc3\x28", "", -1, -9, int64(-62135596800000000), -43200, -1e-6, 123.456, true)
	f.Fuzz(func(t *testing.T, id, app, owner, state, errMsg, label string, prio, n int, nanos int64, zone int, f1, f2 float64, flag bool) {
		if math.IsNaN(f1) || math.IsInf(f1, 0) || math.IsNaN(f2) || math.IsInf(f2, 0) {
			t.Skip("encoding/json refuses non-finite floats")
		}
		if zone <= -24*3600 || zone >= 24*3600 {
			zone %= 24 * 3600
		}
		at := time.Unix(0, nanos).In(time.FixedZone("", zone))
		s := JobStatus{
			ID: id, App: app, Owner: owner, State: state, Error: errMsg,
			Priority: prio, ShareWeight: n, HostsHeld: n >> 1, QueuePosition: n >> 2, Reschedules: n >> 3,
			Recovered: flag, SubmittedAt: at, StartedAt: at.Add(time.Duration(prio)), FinishedAt: at.UTC(),
		}
		if flag {
			s.Deadline = at.Add(time.Hour)
			s.Labels = map[string]string{label: errMsg, id: app}
			s.FailedHosts = []string{owner, label}
			s.Timings = &JobTimings{
				SubmittedAt: at, RunningAt: at.Add(time.Duration(n)),
				SubmitWaitSeconds: f1, QueueWaitSeconds: f2, RunSeconds: f1 * f2, TotalSeconds: -f1,
			}
		} else if n&1 == 1 {
			s.Timings = &JobTimings{DispatchWaitSeconds: f2}
		}
		checkWire(t, s)
	})
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `"`, `\`, "<>&", "\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "\u00e9", "\u2028\u2029\u202a",
		"\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80", "\U0010FFFF", "mixed <\xff> \u2028 end",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonw.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("%q: got %s want %s", s, got, want)
		}
	}
}
