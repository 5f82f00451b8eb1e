package exec

// Mid-run failure and recovery regressions: per-host run locks must
// be released when a task is rescheduled off a locked host, a
// detector-confirmed death must interrupt tasks on a host the local
// watchdog cannot see failing (a partition), and the recovery event
// stream / patched result table must report what actually happened.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
)

// spinTable places one Spin task (of ms milliseconds) on the host.
func spinTable(t *testing.T, g *afg.Graph, host string, ms string) *core.AllocationTable {
	t.Helper()
	id := g.Exits()[0]
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": ms}}); err != nil {
		t.Fatal(err)
	}
	return &core.AllocationTable{App: g.Name, Entries: []core.Placement{{
		Task: id, TaskName: "Spin", Site: "site0",
		Hosts: []string{host}, Predicted: time.Millisecond,
	}}}
}

// TestHostLocksReleasedAfterMidRunReschedule is the lock-leak
// regression: when the watchdog chases a task off a host, the machine's
// run lock must be free the moment the task moves — both while
// the rescheduled attempt still runs elsewhere and after the run ends.
func TestHostLocksReleasedAfterMidRunReschedule(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "60")

	// The moment the reschedule lands, the dead host's lock must be
	// available: the terminated attempt released it on its way out.
	freeDuringRun := make(chan bool, 1)
	sink := func(ev Event) {
		if ev.Type != EventRescheduled {
			return
		}
		ok := hostA.RunLock.TryLock()
		if ok {
			hostA.RunLock.Unlock()
		}
		select {
		case freeDuringRun <- ok:
		default:
		}
	}

	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Fail()
	}()
	res, err := r.engine.Execute(context.Background(), g, table, WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d", res.Rescheduled)
	}
	select {
	case ok := <-freeDuringRun:
		if !ok {
			t.Error("failed host's lock still held while the task ran elsewhere")
		}
	default:
		t.Error("no reschedule event observed")
	}
	// After the run, every machine's run lock must be free.
	for _, h := range r.tb.Sites[0].Hosts {
		if !h.RunLock.TryLock() {
			t.Errorf("run lock of %s leaked", h.Name)
			continue
		}
		h.RunLock.Unlock()
	}
}

// TestConfirmedDeathInterruptsPartitionedHost exercises the
// detector-driven path end to end at the engine boundary: the host is
// partitioned (still computing, so the watchdog's Failed() check stays
// false) and only MarkHostDead — what the detector calls on a confirmed
// transition — moves the task.
func TestConfirmedDeathInterruptsPartitionedHost(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	hostB := r.tb.Sites[0].Hosts[1]
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "80")

	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Partition()
		if hostA.Failed() {
			t.Error("partitioned host reports Failed — watchdog would short-circuit the detector path")
		}
		// What the failure detector does on a confirmed transition.
		r.engine.MarkHostDead(hostA.Name)
	}()
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Runs[len(res.Runs)-1]
	if last.Host != hostB.Name {
		t.Fatalf("final run on %s, want %s", last.Host, hostB.Name)
	}
	if !res.Runs[0].Terminated {
		t.Fatalf("first run not terminated: %+v", res.Runs[0])
	}
	// Recovery restores the host for future placements.
	r.engine.MarkHostAlive(hostA.Name)
	if r.engine.hostDead(hostA.Name) {
		t.Fatal("MarkHostAlive did not clear the dead set")
	}
}

// TestPartitionedHostCannotDeliverResults: a task that computes to
// completion on a partitioned host must NOT deliver its outputs — even
// before the failure detector confirms anything, the results cannot
// have left the machine. The delivery check reschedules it instead.
func TestPartitionedHostCannotDeliverResults(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	hostB := r.tb.Sites[0].Hosts[1]
	r.engine.LoadCheckPeriod = time.Hour // watchdog silent: only the delivery check may fire

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "40")

	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Partition()
	}()
	res, err := r.engine.Execute(context.Background(), g, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("partitioned host delivered results: %+v", res.Runs)
	}
	if !res.Runs[0].Terminated {
		t.Fatalf("first run not terminated: %+v", res.Runs[0])
	}
	if last := res.Runs[len(res.Runs)-1]; last.Host != hostB.Name {
		t.Fatalf("final run on %s, want %s", last.Host, hostB.Name)
	}
	if len(res.FailedHosts) != 1 || res.FailedHosts[0] != hostA.Name {
		t.Fatalf("FailedHosts = %v", res.FailedHosts)
	}
}

// TestEventStreamAndPatchedTable pins the observability contract: the
// sink sees the failure and the reschedule, the result lists the failed
// host, and the returned table reflects the placement that actually ran
// without mutating the caller's input table.
func TestEventStreamAndPatchedTable(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "60")

	var mu sync.Mutex
	var events []Event
	sink := func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Fail()
	}()
	res, err := r.engine.Execute(context.Background(), g, table, WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	var sawFailure, sawResched bool
	for _, ev := range events {
		switch ev.Type {
		case EventHostFailure:
			sawFailure = true
			if ev.Host != hostA.Name || ev.Reason == "" {
				t.Fatalf("failure event = %+v", ev)
			}
		case EventRescheduled:
			sawResched = true
			if ev.Host == hostA.Name {
				t.Fatalf("rescheduled back onto the failed host: %+v", ev)
			}
		}
	}
	if !sawFailure || !sawResched {
		t.Fatalf("events = %+v, want a failure and a reschedule", events)
	}
	if len(res.FailedHosts) != 1 || res.FailedHosts[0] != hostA.Name {
		t.Fatalf("FailedHosts = %v", res.FailedHosts)
	}
	if res.Table == nil || res.Table.Entries[0].Hosts[0] == hostA.Name {
		t.Fatalf("patched table still places the task on the failed host: %+v", res.Table)
	}
	if table.Entries[0].Hosts[0] != hostA.Name {
		t.Fatal("input table was mutated")
	}
	// Scheduling bookkeeping survives the patch.
	if res.Table.Entries[0].Level != table.Entries[0].Level {
		t.Fatal("patch clobbered the level bookkeeping")
	}
}

// TestNoRescheduleEventOnFinalAttempt: when the last allowed attempt is
// terminated, no replacement placement is computed and no
// EventRescheduled is emitted — the event promises a re-run that
// exhaustion makes impossible.
func TestNoRescheduleEventOnFinalAttempt(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	r.engine.MaxAttempts = 1
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "60")

	var mu sync.Mutex
	var events []Event
	go func() {
		time.Sleep(10 * time.Millisecond)
		hostA.Fail()
	}()
	_, err := r.engine.Execute(context.Background(), g, table, WithEventSink(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v, want attempt exhaustion", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, ev := range events {
		if ev.Type == EventRescheduled {
			t.Fatalf("rescheduled event emitted for a placement that never ran: %+v", ev)
		}
	}
	if len(events) == 0 {
		t.Fatal("the host failure itself was not reported")
	}
}

// TestOverloadIsNotAFailedHost: a load-threshold kill reschedules but
// must not brand the host failed.
func TestOverloadIsNotAFailedHost(t *testing.T) {
	r := newRig(t, 2)
	hostA := r.tb.Sites[0].Hosts[0]
	hostA.InjectLoad(0.95)
	r.engine.LoadThreshold = 0.8
	r.engine.LoadCheckPeriod = time.Millisecond

	g := afg.NewGraph("spin")
	g.AddTask("Spin", "util", 0, 1)
	table := spinTable(t, g, hostA.Name, "50")

	var mu sync.Mutex
	var overloads int
	res, err := r.engine.Execute(context.Background(), g, table, WithEventSink(func(ev Event) {
		if ev.Type == EventOverload {
			mu.Lock()
			overloads++
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescheduled < 1 {
		t.Fatalf("rescheduled = %d", res.Rescheduled)
	}
	if len(res.FailedHosts) != 0 {
		t.Fatalf("overloaded host listed as failed: %v", res.FailedHosts)
	}
	mu.Lock()
	defer mu.Unlock()
	if overloads < 1 {
		t.Fatal("no overload event observed")
	}
}
