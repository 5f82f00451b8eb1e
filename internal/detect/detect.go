// Package detect implements the VDCE failure-detection service, the one
// per-host health machine: a heartbeat-based detector that consumes
// monitor reports, tracks per-host last-seen timestamps, and moves hosts
// through healthy -> suspect -> confirmed-dead -> recovered, and beside
// that liveness state a quarantine phase driven by each host's windowed
// failure rate.
//
// The paper's Group Managers detect failures with echo packets and
// immediately mark hosts down; on a wide-area system that turns every
// transient network blip into a scheduling blackout. The detector
// instead requires sustained silence (SuspicionTimeout) plus a
// confirmation quorum of independent suspicion votes — silent
// evaluation rounds and echo-detected failures both count — before a
// host is confirmed dead. Confirmed transitions for a site land in its
// resource-performance database as ONE copy-on-write epoch per
// evaluation round (the ApplyRound batch path), so the lock-free
// scheduling read side always sees a coherent liveness picture and the
// ranked-host caches invalidate once per round, not once per host.
//
// A flapping host — one that fails, comes back before the suspicion
// timeout, and fails again — is never silent long enough to be
// confirmed dead, yet keeps killing the tasks placed on it. Quarantine
// closes that gap with the circuit-breaker machine:
//
//	closed ──(failure rate ≥ FailureThreshold over the window)──▶ open
//	open ──(OpenTimeout elapsed)──▶ half-open
//	half-open ──(ProbeSuccesses successes)──▶ closed
//	half-open ──(any failure)──▶ open
//
// Failures are suspect transitions and the watchdog host failures the
// execution engine records; successes are completed task runs. Outcomes
// only fill the window: phases, like liveness, change only in Tick, in
// the same ApplyRound batch. The repository carries the verdict as the
// host's status — down when dead, quarantined when open, up otherwise
// (half-open hosts take probe work) — and placement reads nothing else.
package detect

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdce/internal/rate"
	"vdce/internal/repository"
)

// State is a host's position in the failure-detection lifecycle.
type State int

const (
	// Healthy hosts heartbeat within the suspicion timeout.
	Healthy State = iota
	// Suspect hosts have been silent longer than the suspicion timeout
	// but are not yet confirmed dead; the repository still lists them up.
	Suspect
	// Dead hosts accumulated a confirmation quorum of suspicion votes;
	// the repository marks them down and running tasks are interrupted.
	Dead
	// Recovered hosts heartbeated again after being confirmed dead; the
	// repository marks them up. Recovered behaves like Healthy (the next
	// silence makes it Suspect) but keeps the history visible.
	Recovered

	// Closed, Open and HalfOpen are the quarantine phases, orthogonal to
	// the liveness states above. A closed host takes placements; an open
	// one is quarantined (the repository lists it HostQuarantined) until
	// OpenTimeout elapses; a half-open one is listed up again for probe
	// work whose outcomes close or re-open it.
	Closed
	Open
	HalfOpen
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Recovered:
		return "recovered"
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Alive reports whether a host in this state is usable for scheduling.
func (s State) Alive() bool { return s == Healthy || s == Recovered }

// Quarantine reports whether s is a quarantine phase rather than a
// liveness state.
func (s State) Quarantine() bool { return s >= Closed }

// Transition is one published state change: of liveness, or of
// quarantine phase (both From and To satisfy Quarantine).
type Transition struct {
	Host string
	Site string
	From State
	To   State
	At   time.Time
}

// Config parameterizes a Detector. Zero fields take the listed defaults.
type Config struct {
	// SuspicionTimeout is how long a host may stay silent before it
	// becomes suspect. It should be a small multiple of the monitor
	// period so one dropped report never raises suspicion. Default 3s.
	SuspicionTimeout time.Duration
	// ConfirmQuorum is how many suspicion votes confirm a death. Every
	// evaluation round a suspect host remains silent contributes one
	// vote, and every echo-detected failure report contributes one, so
	// independent observers shorten confirmation. Default 2.
	ConfirmQuorum int
	// TickPeriod is the cadence of Run's evaluation rounds. Default 1s.
	TickPeriod time.Duration
	// MinSamples is how many outcomes the window must hold before its
	// failure rate can quarantine a host: one unlucky failure on an idle
	// host must not. Default 4.
	MinSamples int
	// FailureThreshold quarantines a host when failures/outcomes over the
	// window reaches it. Default 0.5.
	FailureThreshold float64
	// OpenTimeout is how long a quarantine lasts before the host is
	// offered probe work (half-open). Default 30s.
	OpenTimeout time.Duration
	// ProbeSuccesses is how many half-open successes lift the quarantine;
	// any half-open failure restarts it in full. Default 2.
	ProbeSuccesses int
}

// The failure-rate window: outcomes of the last 30 s, aged out in six
// buckets.
const (
	window  = 30 * time.Second
	buckets = 6
)

func (c *Config) fillDefaults() {
	if c.SuspicionTimeout <= 0 {
		c.SuspicionTimeout = 3 * time.Second
	}
	if c.ConfirmQuorum <= 0 {
		c.ConfirmQuorum = 2
	}
	if c.TickPeriod <= 0 {
		c.TickPeriod = time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 30 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
}

// hostState is the detector's bookkeeping for one host.
type hostState struct {
	site     string
	state    State
	lastSeen time.Time // zero until the first heartbeat or first Tick
	votes    int       // suspicion votes accumulated since last heartbeat

	phase    State // Closed, Open or HalfOpen
	openedAt time.Time
	// probeOK and probeFailed tally the outcomes since the phase went
	// half-open.
	probeOK     int
	probeFailed bool
	// Window is the failure rate's evidence; it anchors at the first Tick.
	rate.Window
}

// status is the repository's verdict on the host.
func (h *hostState) status() repository.HostStatus {
	switch {
	case h.state == Dead:
		return repository.HostDown
	case h.phase == Open:
		return repository.HostQuarantined
	}
	return repository.HostUp
}

// record adds one outcome to the window.
func (h *hostState) record(ok bool) {
	h.Add(!ok)
	if h.phase != HalfOpen {
		return
	}
	if ok {
		h.probeOK++
	} else {
		h.probeFailed = true
	}
}

// Detector is the failure-detection service. One instance watches every
// registered site; heartbeats arrive via Observe, echo votes via
// ReportFailure and task outcomes via RecordOutcome, and Tick evaluates
// all hosts, publishing each site's status changes as a single epoch.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	sites map[string]*repository.ResourceDB
	hosts map[string]*hostState
	subs  []func(Transition)

	// counters for observability and tests
	suspicions    atomic.Int64
	confirmations atomic.Int64
	recoveries    atomic.Int64
	rounds        atomic.Int64
}

// New returns a detector with no sites registered.
func New(cfg Config) *Detector {
	cfg.fillDefaults()
	return &Detector{
		cfg:   cfg,
		sites: make(map[string]*repository.ResourceDB),
		hosts: make(map[string]*hostState),
	}
}

// AddSite registers a site's resource database: every host currently in
// it is watched, and confirmed transitions for the site are published
// through it. Hosts start Healthy with their silence clock starting at
// the first heartbeat or the first evaluation round, whichever comes
// first, so a freshly registered site is never instantly suspect.
func (d *Detector) AddSite(site string, db *repository.ResourceDB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sites[site] = db
	for _, v := range db.Views() {
		if _, ok := d.hosts[v.HostName]; !ok {
			d.hosts[v.HostName] = &hostState{site: site, phase: Closed, Window: rate.NewWindow(window, buckets)}
		}
	}
}

// Subscribe registers fn to receive every published transition. fn is
// called after the round's repository epoch is published, outside the
// detector's lock, in deterministic (host name) order within a round.
func (d *Detector) Subscribe(fn func(Transition)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.subs = append(d.subs, fn)
}

// Observe records a heartbeat: any monitor report for the host counts.
// Timestamps never move the last-seen clock backwards. A fresh
// heartbeat clears accumulated suspicion votes — proof of life outranks
// any number of missed echoes. Unknown hosts are ignored (a report can
// outlive a site registration change).
func (d *Detector) Observe(host string, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.hosts[host]
	if !ok {
		return
	}
	if at.After(h.lastSeen) {
		h.lastSeen = at
		h.votes = 0
	}
}

// ReportFailure records one external suspicion vote — typically a Group
// Manager's echo timeout. Votes accumulate toward the confirmation
// quorum but never confirm by themselves: transitions happen only in
// Tick, so the repository sees at most one liveness epoch per round.
// A vote older than the host's latest heartbeat is discarded: the
// heartbeat already refuted that observation.
func (d *Detector) ReportFailure(host string, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.hosts[host]
	if !ok {
		return
	}
	if h.state == Dead || !at.After(h.lastSeen) {
		return
	}
	h.votes++
}

// RecordOutcome records how a task attempt on the host ended: a
// completed run is a success, a watchdog host failure a failure. It only
// fills the failure-rate window; quarantine is decided in Tick.
func (d *Detector) RecordOutcome(host string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, found := d.hosts[host]; found {
		h.record(ok)
	}
}

// Tick runs one evaluation round at the given time: silent hosts accrue
// suspicion, quorums confirm deaths, heartbeating suspects heal,
// heartbeating dead hosts recover, and failure-rate windows quarantine,
// probe and release hosts. Every status change for a site is published
// as one ApplyRound epoch before the round's lock is released, so a
// caller that reads a host's state after Tick finds the repository
// already agreeing; a round that changes no status publishes nothing.
// Subscribers then see the round's transitions in host-name order. It
// returns the transitions.
func (d *Detector) Tick(now time.Time) ([]Transition, error) {
	d.rounds.Add(1)
	var trs []Transition
	updates := make(map[string][]repository.RoundUpdate)

	d.mu.Lock()
	names := make([]string, 0, len(d.hosts))
	for name := range d.hosts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := d.hosts[name]
		before := h.status()
		trs = d.live(name, h, now, trs)
		trs = d.quarantine(name, h, now, trs)
		if after := h.status(); after != before {
			updates[h.site] = append(updates[h.site], repository.RoundUpdate{Host: name, Status: after})
		}
	}
	sites := make([]string, 0, len(updates))
	for site := range updates {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	var firstErr error
	for _, site := range sites {
		if db := d.sites[site]; db != nil {
			if _, err := db.ApplyRound(updates[site]); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("detect: publish %s round: %w", site, err)
			}
		}
	}
	subs := append([]func(Transition){}, d.subs...)
	d.mu.Unlock()

	for _, tr := range trs {
		for _, fn := range subs {
			fn(tr)
		}
	}
	return trs, firstErr
}

// live moves one host's liveness state for the round at now. A suspect
// transition is also a failure in the host's window. Callers hold d.mu.
func (d *Detector) live(name string, h *hostState, now time.Time, trs []Transition) []Transition {
	if h.lastSeen.IsZero() {
		// Never heard from: start the silence clock at this round.
		h.lastSeen = now
		return trs
	}
	silent := now.Sub(h.lastSeen) > d.cfg.SuspicionTimeout
	move := func(to State) {
		trs = append(trs, Transition{Host: name, Site: h.site, From: h.state, To: to, At: now})
		h.state = to
	}
	switch h.state {
	case Healthy, Recovered:
		if !silent {
			return trs
		}
		move(Suspect)
		h.record(false)
		d.suspicions.Add(1)
		// This round's silence is one vote; echo-timeout votes
		// accumulated since the last real heartbeat (Observe resets
		// them) count toward the same quorum, so independent observers
		// genuinely shorten confirmation.
		h.votes++
		if h.votes >= d.cfg.ConfirmQuorum {
			move(Dead)
			d.confirmations.Add(1)
		}
	case Suspect:
		if !silent {
			move(Healthy)
			h.votes = 0
			return trs
		}
		h.votes++
		if h.votes >= d.cfg.ConfirmQuorum {
			move(Dead)
			d.confirmations.Add(1)
		}
	case Dead:
		if !silent {
			move(Recovered)
			h.votes = 0
			d.recoveries.Add(1)
		}
	}
	return trs
}

// quarantine ages one host's window to now and moves its quarantine
// phase. Callers hold d.mu.
func (d *Detector) quarantine(name string, h *hostState, now time.Time, trs []Transition) []Transition {
	h.Advance(now)
	next := h.phase
	switch h.phase {
	case Closed:
		if r, n := h.Rate(); n >= d.cfg.MinSamples && r >= d.cfg.FailureThreshold {
			next = Open
		}
	case Open:
		if !now.Before(h.openedAt.Add(d.cfg.OpenTimeout)) {
			next = HalfOpen
		}
	case HalfOpen:
		if h.probeFailed {
			next = Open
		} else if h.probeOK >= d.cfg.ProbeSuccesses {
			next = Closed
		}
	}
	if next == h.phase {
		return trs
	}
	switch next {
	case Open:
		h.openedAt = now
	case Closed:
		// A lifted quarantine starts from a clean slate: it already paid
		// for the recorded failures.
		h.Reset()
		for range h.probeOK {
			h.Add(false)
		}
	}
	h.probeOK, h.probeFailed = 0, false
	trs = append(trs, Transition{Host: name, Site: h.site, From: h.phase, To: next, At: now})
	h.phase = next
	return trs
}

// Run evaluates rounds every TickPeriod until ctx is done.
func (d *Detector) Run(ctx context.Context) {
	t := time.NewTicker(d.cfg.TickPeriod)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			_, _ = d.Tick(now)
		}
	}
}

// State returns the detector's current liveness view of one host.
func (d *Detector) State(host string) (State, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.hosts[host]
	if !ok {
		return Healthy, false
	}
	return h.state, true
}

// Health is one host's verdict as of the last round: its liveness state,
// its quarantine phase, and the failure-rate window behind the phase.
type Health struct {
	State       State
	Phase       State
	FailureRate float64
	Samples     int
}

// Health returns one host's verdict; an unknown host is healthy and
// closed.
func (d *Detector) Health(host string) (Health, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.hosts[host]
	if !ok {
		return Health{State: Healthy, Phase: Closed}, false
	}
	r, n := h.Rate()
	return Health{State: h.state, Phase: h.phase, FailureRate: r, Samples: n}, true
}

// Counts returns how many hosts sit in each liveness state and in each
// quarantine phase (every host is counted once in each).
func (d *Detector) Counts() map[State]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[State]int)
	for _, h := range d.hosts {
		out[h.state]++
		out[h.phase]++
	}
	return out
}

// Stats reports (suspicions raised, deaths confirmed, recoveries seen,
// evaluation rounds run) since the detector was created.
func (d *Detector) Stats() (suspicions, confirmations, recoveries, rounds int64) {
	return d.suspicions.Load(), d.confirmations.Load(), d.recoveries.Load(), d.rounds.Load()
}
