// Package chaos is the testbed's fault-injection harness: a
// deterministic, seedable actor that kills, partitions, degrades, and
// recovers hosts while applications execute, so failure detection and
// mid-run rescheduling can be exercised under load instead of with
// hand-placed h.Fail() calls.
//
// A Scenario is a script of timed Events. Targets may be explicit host
// names, a whole site, or a fraction of the eligible population chosen
// deterministically from the injector's seed — the same seed always
// hits the same hosts, so soak failures reproduce. Run plays a scenario
// against the wall clock as a background actor; Apply executes one
// event immediately for synchronous drivers (vdce-sim, benchmarks).
package chaos

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"vdce/internal/testbed"
)

// Action is one fault-injection primitive.
type Action string

const (
	// Kill crashes the targets: execution stops and monitors go silent.
	Kill Action = "kill"
	// Recover restarts crashed targets.
	Recover Action = "recover"
	// Degrade inflates the targets' workload by Event.Load — enough to
	// cross the Application Controller's load threshold.
	Degrade Action = "degrade"
	// Restore removes previously injected load.
	Restore Action = "restore"
	// PartitionSite cuts every host of Event.Site off the network while
	// they keep computing — only heartbeat silence reveals it.
	PartitionSite Action = "partition-site"
	// HealSite reconnects a partitioned site.
	HealSite Action = "heal-site"
	// Flap toggles each target: up hosts crash, crashed hosts restart.
	// A repeated Flap on one host scripts the oscillating alive/dead
	// pattern that per-host circuit breakers exist to quarantine.
	Flap Action = "flap"
	// Brownout degrades the targets by Event.Load and remembers exactly
	// which hosts it hit; BrownoutEnd restores those same hosts with the
	// same load, unlike fractional Restore which re-picks targets.
	Brownout Action = "brownout"
	// BrownoutEnd lifts a previous Brownout. With no explicit targets it
	// restores every host the injector has browned so far.
	BrownoutEnd Action = "brownout-end"
)

// Event is one scripted fault.
type Event struct {
	// At is the event's offset from scenario start.
	At time.Duration
	// Action selects the primitive.
	Action Action
	// Hosts are explicit targets. Empty means "pick Fraction of the
	// eligible population" (up hosts for Kill/Degrade, failed hosts for
	// Recover) with the injector's seeded RNG.
	Hosts []string
	// Site names the target for the site-wide actions.
	Site string
	// Fraction of the eligible population to target when Hosts is empty;
	// at least one host is always picked. Default 0.25.
	Fraction float64
	// Load is the Degrade/Restore contention delta. Default 0.5.
	Load float64
}

// Applied records one executed event with its resolved targets.
type Applied struct {
	Event
	// Targets are the hosts the event actually hit.
	Targets []string
	// Wall is when the injector applied it.
	Wall time.Time
}

// String renders the applied event for scenario logs.
func (a Applied) String() string {
	target := strings.Join(a.Targets, ",")
	if a.Site != "" {
		target = "site " + a.Site
	}
	return fmt.Sprintf("+%-8v %-14s %s", a.At, a.Action, target)
}

// Scenario is a named fault script. Events play in At order.
type Scenario struct {
	Name   string
	Events []Event
}

// Injector applies scenarios to a testbed.
type Injector struct {
	tb *testbed.Testbed
	// OnApply, when set, observes every applied event as it lands —
	// live scenario logging for servers. Set it before use; it is
	// called outside the injector's lock.
	OnApply func(Applied)

	mu  sync.Mutex
	rng *rand.Rand
	// browned remembers per-host injected brownout load so BrownoutEnd
	// restores exactly the hosts (and amounts) Brownout degraded.
	browned map[string]float64
}

// NewInjector returns an injector whose random target choices derive
// deterministically from seed.
func NewInjector(tb *testbed.Testbed, seed int64) *Injector {
	return &Injector{tb: tb, rng: rand.New(rand.NewSource(seed)), browned: make(map[string]float64)}
}

// pick chooses max(1, round(frac*len(eligible))) hosts from the eligible
// set, deterministically for a given injector seed and call sequence.
// Candidates are considered in sorted-name order so the testbed's map
// iteration order never leaks into target choice.
func (in *Injector) pick(eligible []*testbed.Host, frac float64) []*testbed.Host {
	if len(eligible) == 0 {
		return nil
	}
	if frac <= 0 {
		frac = 0.25
	}
	n := int(float64(len(eligible))*frac + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(eligible) {
		n = len(eligible)
	}
	sorted := append([]*testbed.Host(nil), eligible...)
	slices.SortFunc(sorted, func(a, b *testbed.Host) int { return strings.Compare(a.Name, b.Name) })
	idx := in.rng.Perm(len(sorted))[:n]
	sort.Ints(idx)
	out := make([]*testbed.Host, n)
	for i, j := range idx {
		out[i] = sorted[j]
	}
	return out
}

// resolve maps an event to its target host models.
func (in *Injector) resolve(e Event) ([]*testbed.Host, error) {
	if e.Site != "" || e.Action == PartitionSite || e.Action == HealSite {
		site, err := in.tb.Site(e.Site)
		if err != nil {
			return nil, err
		}
		return site.Hosts, nil
	}
	if len(e.Hosts) > 0 {
		out := make([]*testbed.Host, 0, len(e.Hosts))
		for _, name := range e.Hosts {
			h, err := in.tb.Host(name)
			if err != nil {
				return nil, err
			}
			out = append(out, h)
		}
		return out, nil
	}
	// Fractional targeting over the action's eligible population.
	var eligible []*testbed.Host
	for _, h := range in.tb.AllHosts() {
		switch e.Action {
		case Recover:
			if h.Failed() {
				eligible = append(eligible, h)
			}
		case Flap:
			// A flap toggles, so every host is eligible regardless of
			// current state.
			eligible = append(eligible, h)
		case BrownoutEnd:
			// Targets come from the browned memory, resolved in apply.
			if _, ok := in.browned[h.Name]; ok {
				eligible = append(eligible, h)
			}
		default:
			if h.Reachable() {
				eligible = append(eligible, h)
			}
		}
	}
	if e.Action == BrownoutEnd {
		// Restore everything remembered, never a fraction of it.
		return eligible, nil
	}
	return in.pick(eligible, e.Fraction), nil
}

// Apply executes one event immediately and records it.
func (in *Injector) Apply(e Event) (Applied, error) {
	a, err := in.apply(e)
	if err == nil && in.OnApply != nil {
		in.OnApply(a)
	}
	return a, err
}

func (in *Injector) apply(e Event) (Applied, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	targets, err := in.resolve(e)
	if err != nil {
		return Applied{}, err
	}
	load := e.Load
	if load <= 0 {
		load = 0.5
	}
	names := make([]string, len(targets))
	for i, h := range targets {
		names[i] = h.Name
		switch e.Action {
		case Kill:
			h.Fail()
		case Recover:
			h.Recover()
		case Degrade:
			h.InjectLoad(load)
		case Restore:
			h.InjectLoad(-load)
		case PartitionSite:
			h.Partition()
		case HealSite:
			h.Heal()
		case Flap:
			if h.Failed() {
				h.Recover()
			} else {
				h.Fail()
			}
		case Brownout:
			h.InjectLoad(load)
			in.browned[h.Name] += load
		case BrownoutEnd:
			if l, ok := in.browned[h.Name]; ok {
				h.InjectLoad(-l)
				delete(in.browned, h.Name)
			}
		default:
			return Applied{}, fmt.Errorf("chaos: unknown action %q", e.Action)
		}
	}
	return Applied{Event: e, Targets: names, Wall: time.Now()}, nil
}

// Run plays the scenario as a background actor: it sleeps to each
// event's offset (relative to the moment Run is called) and applies it.
// A canceled ctx stops the script early; events applied so far are
// returned either way. Events run in At order regardless of script
// order, and same-offset events keep their script order.
func (in *Injector) Run(ctx context.Context, sc Scenario) ([]Applied, error) {
	events := append([]Event(nil), sc.Events...)
	sortEvents(events)
	start := time.Now()
	var out []Applied
	for _, e := range events {
		if wait := e.At - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return out, ctx.Err()
			case <-t.C:
			}
		}
		a, err := in.Apply(e)
		if err != nil {
			return out, fmt.Errorf("chaos: scenario %s: %w", sc.Name, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// KillQuarter kills 25% of the up hosts at kill and recovers half of
// the crashed population at heal — the canonical soak scenario.
func KillQuarter(kill, heal time.Duration) Scenario {
	return Scenario{Name: "kill-quarter", Events: []Event{
		{At: kill, Action: Kill, Fraction: 0.25},
		{At: heal, Action: Recover, Fraction: 0.5},
	}}
}

// RollingRestart crashes each listed host in turn — one every period,
// down for downFor — so the outage walks across the fleet with at most
// a few hosts dark at once.
func RollingRestart(hosts []string, period, downFor time.Duration) Scenario {
	sc := Scenario{Name: "rolling-restart"}
	for i, h := range hosts {
		at := time.Duration(i) * period
		sc.Events = append(sc.Events,
			Event{At: at, Action: Kill, Hosts: []string{h}},
			Event{At: at + downFor, Action: Recover, Hosts: []string{h}},
		)
	}
	return sc
}

// SitePartition cuts the named site off the network at cut and heals it
// at heal. Hosts keep computing while dark: only the failure detector's
// heartbeat silence can drive recovery.
func SitePartition(site string, cut, heal time.Duration) Scenario {
	return Scenario{Name: "site-partition", Events: []Event{
		{At: cut, Action: PartitionSite, Site: site},
		{At: heal, Action: HealSite, Site: site},
	}}
}

// FlappingHost toggles one host up/down count times, once per period —
// the canonical circuit-breaker workload: the host keeps coming back
// just long enough to attract placements before dying again.
func FlappingHost(host string, period time.Duration, count int) Scenario {
	sc := Scenario{Name: "flapping-host"}
	for i := 0; i < count; i++ {
		sc.Events = append(sc.Events, Event{
			At: time.Duration(i+1) * period, Action: Flap, Hosts: []string{host},
		})
	}
	return sc
}

// BrownoutScenario degrades frac of the up hosts by load at start and
// lifts the degradation from exactly those hosts at end — a capacity
// brownout rather than an outage, for exercising load shedding.
func BrownoutScenario(start, end time.Duration, frac, load float64) Scenario {
	return Scenario{Name: "brownout", Events: []Event{
		{At: start, Action: Brownout, Fraction: frac, Load: load},
		{At: end, Action: BrownoutEnd},
	}}
}

// sortEvents orders a script by offset, keeping same-offset events in
// script order.
func sortEvents(events []Event) {
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.At, b.At) })
}

// Named resolves a CLI scenario name against a testbed, spreading the
// script over span. The names are the vdce-sim -chaos vocabulary.
func Named(name string, tb *testbed.Testbed, span time.Duration) (Scenario, error) {
	if span <= 0 {
		span = 4 * time.Second
	}
	switch name {
	case "kill-quarter":
		return KillQuarter(span/4, span*3/4), nil
	case "rolling-restart":
		hosts := tb.HostNames()
		period := span / time.Duration(len(hosts)+1)
		return RollingRestart(hosts, period, period/2), nil
	case "site-partition":
		// Partition the last site so the first (the scheduling home in
		// vdce-sim) survives to host the rescheduled work. On a
		// single-site system that would cut off every host with nowhere
		// left to recover onto — refuse instead of blacking out.
		if len(tb.Sites) < 2 {
			return Scenario{}, fmt.Errorf("chaos: site-partition needs >= 2 sites (testbed has %d); no site would survive to absorb the rescheduled work", len(tb.Sites))
		}
		site := tb.Sites[len(tb.Sites)-1].Name
		return SitePartition(site, span/4, span*3/4), nil
	case "flapping-host":
		// Flap the first host (sorted order, so deterministic) six
		// times: three full down/up cycles within the span.
		hosts := tb.HostNames()
		sort.Strings(hosts)
		const flaps = 6
		return FlappingHost(hosts[0], span/(flaps+1), flaps), nil
	case "brownout":
		return BrownoutScenario(span/4, span*3/4, 0.5, 0.6), nil
	default:
		return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (want kill-quarter|rolling-restart|site-partition|flapping-host|brownout)", name)
	}
}
