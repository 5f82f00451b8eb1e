package detect

import (
	"testing"
	"time"

	"vdce/internal/repository"
)

// fixture builds a detector over one site with the given hosts, all
// heartbeating at t0.
func fixture(t *testing.T, cfg Config, hosts ...string) (*Detector, *repository.ResourceDB, time.Time) {
	t.Helper()
	db := repository.NewResourceDB()
	for _, h := range hosts {
		if err := db.AddHost(repository.ResourceInfo{
			HostName: h, Site: "s0", TotalMem: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	d := New(cfg)
	d.AddSite("s0", db)
	t0 := time.Unix(1000, 0)
	for _, h := range hosts {
		d.Observe(h, t0)
	}
	return d, db, t0
}

func status(t *testing.T, db *repository.ResourceDB, host string) repository.HostStatus {
	t.Helper()
	v, ok := db.View(host)
	if !ok {
		t.Fatalf("host %s missing from db", host)
	}
	return v.Status
}

func TestLifecycleHealthySuspectDeadRecovered(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 2}
	d, db, t0 := fixture(t, cfg, "a", "b")

	// Round 1 at t0+2s: "a" keeps heartbeating, "b" goes silent.
	d.Observe("a", t0.Add(2*time.Second))
	trs, err := d.Tick(t0.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].Host != "b" || trs[0].To != Suspect {
		t.Fatalf("round 1 transitions = %+v, want b -> suspect", trs)
	}
	if st, _ := d.State("b"); st != Suspect {
		t.Fatalf("b state = %v", st)
	}
	// Suspicion is not confirmation: the repository still lists b up.
	if got := status(t, db, "b"); got != repository.HostUp {
		t.Fatalf("suspect b already marked %s", got)
	}

	// Round 2: still silent -> quorum of 2 reached -> confirmed dead.
	d.Observe("a", t0.Add(4*time.Second))
	trs, err = d.Tick(t0.Add(4 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].To != Dead || trs[0].From != Suspect {
		t.Fatalf("round 2 transitions = %+v, want b suspect -> dead", trs)
	}
	if got := status(t, db, "b"); got != repository.HostDown {
		t.Fatalf("confirmed-dead b marked %s, want down", got)
	}

	// b heartbeats again -> recovered, repository back up.
	d.Observe("b", t0.Add(6*time.Second))
	d.Observe("a", t0.Add(6*time.Second))
	trs, err = d.Tick(t0.Add(6 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].To != Recovered {
		t.Fatalf("round 3 transitions = %+v, want b -> recovered", trs)
	}
	if got := status(t, db, "b"); got != repository.HostUp {
		t.Fatalf("recovered b marked %s, want up", got)
	}
	if !Healthy.Alive() || !Recovered.Alive() || Suspect.Alive() || Dead.Alive() {
		t.Fatal("state aliveness misclassified")
	}

	sus, conf, rec, rounds := d.Stats()
	if sus != 1 || conf != 1 || rec != 1 || rounds != 3 {
		t.Fatalf("stats = %d/%d/%d/%d", sus, conf, rec, rounds)
	}
}

func TestSuspectHealsOnHeartbeat(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 3}
	d, db, t0 := fixture(t, cfg, "a")

	if _, err := d.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.State("a"); st != Suspect {
		t.Fatalf("a = %v, want suspect", st)
	}
	// The heartbeat returns before the quorum fills: back to healthy,
	// votes reset, repository untouched throughout.
	gen := db.Generation()
	d.Observe("a", t0.Add(3*time.Second))
	trs, err := d.Tick(t0.Add(3 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 1 || trs[0].From != Suspect || trs[0].To != Healthy {
		t.Fatalf("transitions = %+v, want suspect -> healthy", trs)
	}
	if db.Generation() != gen {
		t.Fatal("suspicion round published a repository epoch")
	}
	// A fresh silence must re-earn the full quorum.
	if _, err := d.Tick(t0.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.State("a"); st != Suspect {
		t.Fatalf("a = %v, want suspect again", st)
	}
	if got := status(t, db, "a"); got != repository.HostUp {
		t.Fatalf("a marked %s before quorum", got)
	}
}

func TestEchoVotesAccelerateConfirmation(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 3}
	d, db, t0 := fixture(t, cfg, "a")

	// Two echo-timeout votes plus the first silent round = quorum of 3:
	// one evaluation round confirms instead of three.
	d.ReportFailure("a", t0.Add(1500*time.Millisecond))
	d.ReportFailure("a", t0.Add(1600*time.Millisecond))
	trs, err := d.Tick(t0.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 || trs[0].To != Suspect || trs[1].To != Dead {
		t.Fatalf("transitions = %+v, want suspect then dead in one round", trs)
	}
	if got := status(t, db, "a"); got != repository.HostDown {
		t.Fatalf("a marked %s, want down", got)
	}
}

// TestEchoVotesSurviveUntilSuspicion: votes reported while the silence
// is still below the suspicion threshold must not be wiped by an
// intermediate evaluation round — only a real heartbeat clears them.
func TestEchoVotesSurviveUntilSuspicion(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 3}
	d, db, t0 := fixture(t, cfg, "a")

	// Crash at t0: heartbeats stop; two echo timeouts land before the
	// suspicion threshold is crossed.
	d.ReportFailure("a", t0.Add(200*time.Millisecond))
	d.ReportFailure("a", t0.Add(400*time.Millisecond))
	// A round before the threshold sees nothing yet — and must not
	// reset the accumulated votes.
	if trs, _ := d.Tick(t0.Add(500 * time.Millisecond)); len(trs) != 0 {
		t.Fatalf("pre-threshold transitions = %+v", trs)
	}
	// First round past the threshold: 2 echo votes + this round's
	// silence fill the quorum of 3 immediately.
	trs, err := d.Tick(t0.Add(1500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 || trs[1].To != Dead {
		t.Fatalf("transitions = %+v, want suspect+dead in the first silent round", trs)
	}
	if got := status(t, db, "a"); got != repository.HostDown {
		t.Fatalf("a marked %s", got)
	}
}

// TestStaleEchoVoteDiscarded: a failure notice older than the host's
// latest heartbeat is refuted evidence and must not count toward the
// quorum.
func TestStaleEchoVoteDiscarded(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 2}
	d, db, t0 := fixture(t, cfg, "a")

	d.Observe("a", t0.Add(2*time.Second))
	// Delivered late: the echo timed out before the heartbeat above.
	d.ReportFailure("a", t0.Add(1*time.Second))
	trs, err := d.Tick(t0.Add(3500 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Fresh silence alone: one vote — suspect, not dead. A counted
	// stale vote would have confirmed death here.
	if len(trs) != 1 || trs[0].To != Suspect {
		t.Fatalf("transitions = %+v, want suspect only", trs)
	}
	if got := status(t, db, "a"); got != repository.HostUp {
		t.Fatalf("a marked %s on a stale vote", got)
	}
}

func TestEchoVotesAloneNeverConfirm(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 2}
	d, db, t0 := fixture(t, cfg, "a")

	// A flood of echo votes while the heartbeat stream is alive must not
	// kill the host: heartbeats reset the vote count every round.
	for i := 0; i < 10; i++ {
		d.ReportFailure("a", t0)
	}
	d.Observe("a", t0.Add(2*time.Second))
	trs, err := d.Tick(t0.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 0 {
		t.Fatalf("transitions = %+v, want none", trs)
	}
	if st, _ := d.State("a"); st != Healthy {
		t.Fatalf("a = %v, want healthy", st)
	}
	if got := status(t, db, "a"); got != repository.HostUp {
		t.Fatalf("a marked %s", got)
	}
}

// TestRoundPublishesSingleEpoch is the batching contract: however many
// hosts are confirmed in one round, the site repository moves exactly
// one generation, so the lock-free read side sees one coherent flip.
func TestRoundPublishesSingleEpoch(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1}
	d, db, t0 := fixture(t, cfg, "a", "b", "c", "d")

	gen := db.Generation()
	trs, err := d.Tick(t0.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, tr := range trs {
		if tr.To == Dead {
			dead++
		}
	}
	if dead != 4 {
		t.Fatalf("confirmed %d deaths, want 4: %+v", dead, trs)
	}
	if got := db.Generation(); got != gen+1 {
		t.Fatalf("4 confirmations moved the epoch %d times, want 1", got-gen)
	}
	for _, h := range []string{"a", "b", "c", "d"} {
		if got := status(t, db, h); got != repository.HostDown {
			t.Fatalf("%s marked %s", h, got)
		}
	}
}

func TestNeverSeenHostGetsGracePeriod(t *testing.T) {
	db := repository.NewResourceDB()
	if err := db.AddHost(repository.ResourceInfo{HostName: "quiet", Site: "s0"}); err != nil {
		t.Fatal(err)
	}
	d := New(Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1})
	d.AddSite("s0", db)
	t0 := time.Unix(2000, 0)
	// First round only starts the silence clock; no instant suspicion.
	if trs, _ := d.Tick(t0); len(trs) != 0 {
		t.Fatalf("first round transitions = %+v", trs)
	}
	// But sustained silence after that is a real failure.
	trs, err := d.Tick(t0.Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 || trs[len(trs)-1].To != Dead {
		t.Fatalf("transitions = %+v, want suspect+dead", trs)
	}
}

func TestUnknownHostsIgnored(t *testing.T) {
	d, _, t0 := fixture(t, Config{}, "a")
	d.Observe("ghost", t0)
	d.ReportFailure("ghost", t0)
	if _, ok := d.State("ghost"); ok {
		t.Fatal("ghost host tracked")
	}
}

func TestSubscribersSeeOrderedTransitions(t *testing.T) {
	cfg := Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1}
	d, db, t0 := fixture(t, cfg, "b", "a", "c")

	var got []Transition
	d.Subscribe(func(tr Transition) {
		// The round's epoch must already be published when a subscriber
		// runs — the engine relies on the repository agreeing with the
		// transition it is reacting to.
		if tr.To == Dead {
			if v, _ := db.View(tr.Host); v.Status != repository.HostDown {
				t.Errorf("subscriber saw %s dead before the epoch published", tr.Host)
			}
		}
		got = append(got, tr)
	})
	if _, err := d.Tick(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var deadOrder []string
	for _, tr := range got {
		if tr.To == Dead {
			deadOrder = append(deadOrder, tr.Host)
		}
	}
	want := []string{"a", "b", "c"}
	if len(deadOrder) != 3 {
		t.Fatalf("dead transitions = %v", deadOrder)
	}
	for i := range want {
		if deadOrder[i] != want[i] {
			t.Fatalf("transition order %v, want %v", deadOrder, want)
		}
	}
	if c := d.Counts(); c[Dead] != 3 {
		t.Fatalf("counts = %v", c)
	}
}

// qrig drives one site's quarantine on a synthetic clock: every round
// heartbeats all hosts, so only the recorded outcomes move phases.
type qrig struct {
	t     *testing.T
	d     *Detector
	db    *repository.ResourceDB
	hosts []string
	now   time.Time
}

func newQrig(t *testing.T, cfg Config, hosts ...string) *qrig {
	t.Helper()
	d, db, t0 := fixture(t, cfg, hosts...)
	q := &qrig{t: t, d: d, db: db, hosts: hosts, now: t0}
	q.round(0) // anchors every window at t0
	return q
}

// outcomes records n outcomes for host.
func (q *qrig) outcomes(host string, ok bool, n int) {
	for i := 0; i < n; i++ {
		q.d.RecordOutcome(host, ok)
	}
}

// round advances the clock by dt and runs one heartbeating round.
func (q *qrig) round(dt time.Duration) []Transition {
	q.t.Helper()
	q.now = q.now.Add(dt)
	for _, h := range q.hosts {
		q.d.Observe(h, q.now)
	}
	trs, err := q.d.Tick(q.now)
	if err != nil {
		q.t.Fatal(err)
	}
	return trs
}

// want checks host's quarantine phase and the repository status it
// implies.
func (q *qrig) want(host string, phase State) {
	q.t.Helper()
	hs, _ := q.d.Health(host)
	if hs.Phase != phase {
		q.t.Fatalf("%s phase = %v, want %v (%+v)", host, hs.Phase, phase, hs)
	}
	st := repository.HostUp
	if phase == Open {
		st = repository.HostQuarantined
	}
	if got := status(q.t, q.db, host); got != st {
		q.t.Fatalf("%s %v but marked %s, want %s", host, phase, got, st)
	}
}

// TestQuarantine walks the failure-rate window and its phases through
// Tick on a synthetic clock.
func TestQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		hosts []string // default: one host, "h"
		run   func(q *qrig)
	}{
		{"ClosedUntilMinSamples", Config{MinSamples: 4}, nil, func(q *qrig) {
			// Three straight failures: rate 1.0 but below the sample floor.
			q.outcomes("h", false, 3)
			q.round(time.Second)
			q.want("h", Closed)
			// The fourth meets MinSamples at rate 1.0 >= 0.5: quarantined.
			q.outcomes("h", false, 1)
			q.round(time.Second)
			q.want("h", Open)
		}},
		{"RateBelowThresholdStaysClosed", Config{FailureThreshold: 0.5, MinSamples: 4}, nil, func(q *qrig) {
			q.outcomes("h", true, 7)
			q.outcomes("h", false, 3)
			q.round(time.Second)
			q.want("h", Closed)
		}},
		{"OpenToHalfOpenAfterTimeout", Config{MinSamples: 2, OpenTimeout: 10 * time.Second}, nil, func(q *qrig) {
			q.outcomes("h", false, 2)
			q.round(time.Second)
			q.want("h", Open)
			// A millisecond short of the timeout: still quarantined.
			q.round(10*time.Second - time.Millisecond)
			q.want("h", Open)
			// Half-open hosts are listed up again for probe work.
			q.round(time.Millisecond)
			q.want("h", HalfOpen)
		}},
		{"HalfOpenProbeSuccessesClose", Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 2}, nil, func(q *qrig) {
			q.outcomes("h", false, 2)
			q.round(time.Second)
			q.round(time.Second)
			q.want("h", HalfOpen)
			q.outcomes("h", true, 1)
			q.round(time.Millisecond)
			q.want("h", HalfOpen) // one probe is not enough
			q.outcomes("h", true, 1)
			q.round(time.Millisecond)
			q.want("h", Closed)
			// The close wiped the failure history: one new failure beside
			// the two re-seeded successes must not quarantine again.
			q.outcomes("h", false, 1)
			q.round(time.Millisecond)
			q.want("h", Closed)
		}},
		{"HalfOpenFailureReopens", Config{MinSamples: 2, OpenTimeout: time.Second}, nil, func(q *qrig) {
			q.outcomes("h", false, 2)
			q.round(time.Second)
			q.round(time.Second)
			q.want("h", HalfOpen)
			q.outcomes("h", true, 1)
			q.outcomes("h", false, 1)
			q.round(time.Millisecond)
			q.want("h", Open)
			// The quarantine restarted in full from the failed probe.
			q.round(time.Second - time.Millisecond)
			q.want("h", Open)
			q.round(time.Millisecond)
			q.want("h", HalfOpen)
		}},
		{"WindowAgesOutFailures", Config{MinSamples: 4}, nil, func(q *qrig) {
			q.outcomes("h", false, 3)
			q.round(time.Second)
			// A full window later the old failures are gone: the next
			// failure is one sample, below MinSamples.
			q.round(window + time.Second)
			q.outcomes("h", false, 1)
			q.round(time.Millisecond)
			q.want("h", Closed)
			if hs, _ := q.d.Health("h"); hs.Samples != 1 || hs.FailureRate != 1 {
				q.t.Fatalf("windowed rate = %.2f over %d samples, want 1.00 over 1", hs.FailureRate, hs.Samples)
			}
		}},
		{"OpenHostsLeaveTheUpList", Config{MinSamples: 2}, []string{"a", "b", "c"}, func(q *qrig) {
			q.outcomes("b", false, 2)
			q.outcomes("a", false, 2)
			q.outcomes("c", true, 1)
			gen := q.db.Generation()
			q.round(time.Second)
			if got := q.db.Generation(); got != gen+1 {
				q.t.Fatalf("two quarantines moved the epoch %d times, want 1", got-gen)
			}
			var up []string
			for _, h := range q.db.UpHosts() {
				up = append(up, h.HostName)
			}
			if len(up) != 1 || up[0] != "c" {
				q.t.Fatalf("up hosts = %v, want [c]", up)
			}
			if c := q.d.Counts(); c[Open] != 2 || c[Closed] != 1 || c[Healthy] != 3 {
				q.t.Fatalf("counts = %v", c)
			}
		}},
		{"QuietRoundPublishesNothing", Config{}, nil, func(q *qrig) {
			gen := q.db.Generation()
			q.outcomes("h", true, 5)
			q.outcomes("h", false, 1)
			if trs := q.round(time.Second); len(trs) != 0 {
				q.t.Fatalf("quiet round transitions = %+v", trs)
			}
			if got := q.db.Generation(); got != gen {
				q.t.Fatalf("a round that changed no status moved the epoch %d times", got-gen)
			}
		}},
		{"SuspicionsAreFailures", Config{SuspicionTimeout: time.Second, ConfirmQuorum: 5, MinSamples: 2}, []string{"g", "h"}, func(q *qrig) {
			// h flaps: silent past the timeout, back, silent again. Each
			// suspicion is a failure; no outcome is ever recorded.
			for i := 0; i < 2; i++ {
				q.now = q.now.Add(2 * time.Second)
				q.d.Observe("g", q.now)
				if _, err := q.d.Tick(q.now); err != nil {
					q.t.Fatal(err)
				}
				if st, _ := q.d.State("h"); st != Suspect {
					q.t.Fatalf("h %v, want suspect", st)
				}
				q.round(time.Millisecond)
			}
			q.want("h", Open)
			q.want("g", Closed)
		}},
		{"UnknownHostIsClosed", Config{}, nil, func(q *qrig) {
			q.d.RecordOutcome("never-seen", false)
			hs, ok := q.d.Health("never-seen")
			if ok || hs.State != Healthy || hs.Phase != Closed {
				q.t.Fatalf("unknown host health = %+v, %v", hs, ok)
			}
		}},
		{"TransitionsObserved", Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 1}, nil, func(q *qrig) {
			var seen []Transition
			q.d.Subscribe(func(tr Transition) { seen = append(seen, tr) })
			q.outcomes("h", false, 2)
			q.round(time.Second) // closed -> open
			q.round(time.Second) // open -> half-open
			q.outcomes("h", true, 1)
			q.round(time.Second) // half-open -> closed
			want := [][2]State{{Closed, Open}, {Open, HalfOpen}, {HalfOpen, Closed}}
			if len(seen) != len(want) {
				q.t.Fatalf("transitions = %+v, want %v", seen, want)
			}
			for i, w := range want {
				if tr := seen[i]; tr.Host != "h" || tr.From != w[0] || tr.To != w[1] || !tr.To.Quarantine() {
					q.t.Fatalf("transition %d = %+v, want h %v -> %v", i, tr, w[0], w[1])
				}
			}
		}},
		{"OpensCounted", Config{MinSamples: 2, OpenTimeout: time.Second, ProbeSuccesses: 1}, nil, func(q *qrig) {
			opens := 0
			for cycle := 0; cycle < 2; cycle++ {
				q.outcomes("h", false, 2)
				for _, step := range []time.Duration{time.Second, time.Second, time.Second} {
					for _, tr := range q.round(step) {
						if tr.To == Open {
							opens++
						}
					}
					q.outcomes("h", true, 1)
				}
			}
			if opens != 2 {
				q.t.Fatalf("opens = %d, want 2", opens)
			}
			q.want("h", Closed)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hosts := tc.hosts
			if hosts == nil {
				hosts = []string{"h"}
			}
			tc.run(newQrig(t, tc.cfg, hosts...))
		})
	}
}

// TestRecordOutcomeAllocFree: the engine records one outcome per task
// attempt, on the task's own goroutine; it may cost no allocation.
func TestRecordOutcomeAllocFree(t *testing.T) {
	q := newQrig(t, Config{}, "h")
	ok := false
	if n := testing.AllocsPerRun(1000, func() {
		q.d.RecordOutcome("h", ok)
		ok = !ok
	}); n != 0 {
		t.Fatalf("RecordOutcome allocates %.1f times a call, want 0", n)
	}
}
