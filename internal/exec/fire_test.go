package exec

// Firing: a task starts when the delivery of its last input lands. These
// tests pin what that must keep: siblings a delivery fires run side by
// side, a caller's cancel ends a run whose consumer waits out a long
// modeled transfer at once and leaves no goroutine behind, and a failure
// before a consumer fires means the consumer never runs.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// TestFiringDiamondBranchesOverlap: a source feeds two branches that
// Spin on two hosts, both feeding one sink. The source's delivery fires
// both branches; one runs on the source's goroutine and the other
// beside it, so their runs overlap.
func TestFiringDiamondBranchesOverlap(t *testing.T) {
	r := newRig(t, 4)
	err := r.engine.Reg.Register(tasklib.Spec{Name: "Meet", Library: "test", InPorts: 2, OutPorts: 1,
		Fn: func(c *tasklib.Context) ([]tasklib.Value, error) {
			return []tasklib.Value{c.In[0].(float64) + c.In[1].(float64)}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	g := afg.NewGraph("diamond")
	src := g.AddTask("Vector_Generate", "matrix", 0, 1)
	left := g.AddTask("Spin", "util", 1, 1)
	right := g.AddTask("Spin", "util", 1, 1)
	sink := g.AddTask("Meet", "test", 2, 1)
	for id, args := range map[afg.TaskID]map[string]string{
		src: {"n": "8", "seed": "1"}, left: {"ms": "40"}, right: {"ms": "40"},
	} {
		if err := g.SetProps(id, afg.Properties{Args: args}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][4]int{{int(src), 0, int(left), 0}, {int(src), 0, int(right), 0},
		{int(left), 0, int(sink), 0}, {int(right), 0, int(sink), 1}} {
		if err := g.Connect(afg.TaskID(e[0]), e[1], afg.TaskID(e[2]), e[3], 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.engine.Execute(context.Background(), g, onePerHost(r, g))
	if err != nil {
		t.Fatal(err)
	}
	runs := make(map[afg.TaskID]TaskRun)
	for _, tr := range res.Runs {
		runs[tr.Task] = tr
	}
	a, b := runs[left], runs[right]
	if a.Host == b.Host {
		t.Fatalf("both branches ran on %s", a.Host)
	}
	if !a.Start.Before(b.End) || !b.Start.Before(a.End) {
		t.Fatalf("the branches ran one after the other: %v..%v and %v..%v",
			a.Start, a.End, b.Start, b.End)
	}
	if s := runs[sink]; s.Start.Before(a.End) || s.Start.Before(b.End) {
		t.Fatalf("the sink started at %v, before both branches ended", s.Start)
	}
}

// TestFiringCancelDuringModeledTransfer: with dilation on, a consumer
// whose input crosses a 10 s link waits out the transfer on the run's
// clock. The caller's cancel ends the run at once, and every goroutine
// the run started is gone afterwards.
func TestFiringCancelDuringModeledTransfer(t *testing.T) {
	tb, err := testbed.Build(testbed.Config{
		Sites: 2, HostsPerGroup: 1, Seed: 11,
		SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01, LoadSigma: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Net.SetLink("site0", "site1", netmodel.Link{Latency: 10 * time.Second, BytesPerSec: 1e9}); err != nil {
		t.Fatal(err)
	}
	g := afg.NewGraph("far")
	src := g.AddTask("Vector_Generate", "matrix", 0, 1)
	dst := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.SetProps(src, afg.Properties{Args: map[string]string{"n": "8", "seed": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, 0, dst, 0, 0); err != nil {
		t.Fatal(err)
	}
	table := &core.AllocationTable{App: g.Name}
	for i, id := range []afg.TaskID{src, dst} {
		site := tb.Sites[i]
		table.Entries = append(table.Entries, core.Placement{Task: id, TaskName: g.Tasks[id].Name,
			Site: site.Name, Hosts: []string{site.Hosts[0].Name}, Predicted: time.Millisecond})
	}
	var delivered atomic.Int64
	e := &Engine{Reg: tasklib.Default(), TB: tb, DilationScale: 1,
		Record: func(recs []protocol.ExecutionRecord) { delivered.Add(int64(len(recs))) }}
	t.Cleanup(e.Close)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Execute(ctx, g, table)
		errCh <- err
	}()
	if !waitForLoad(5*time.Second, func() bool { return e.TransferStats().Frames == 1 }) {
		t.Fatal("the producer never delivered")
	}
	time.Sleep(20 * time.Millisecond) // the consumer, fired by the delivery, is waiting
	canceled := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute = %v, want the caller's cancel", err)
		}
		if d := time.Since(canceled); d > 100*time.Millisecond {
			t.Fatalf("Execute returned %v after the cancel", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cancel did not end a run waiting out a modeled transfer")
	}
	if n := delivered.Load(); n != 1 {
		t.Fatalf("%d tasks succeeded, want the producer alone", n)
	}
	if !waitForLoad(5*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before the run, %d after", before, runtime.NumGoroutine())
	}
}

// TestFiringSiblingFailureRunsNoConsumer: a consumer fed by a producer
// that delivers and by one that fails is never fired, so it never runs,
// and Execute returns the failing task's error.
func TestFiringSiblingFailureRunsNoConsumer(t *testing.T) {
	r := newRig(t, 3)
	var consumed atomic.Int32
	for _, spec := range []tasklib.Spec{
		{Name: "Boom", OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			time.Sleep(5 * time.Millisecond) // the other producer delivers first
			return nil, errors.New("boom")
		}},
		{Name: "Consume", InPorts: 2, OutPorts: 1, Fn: func(*tasklib.Context) ([]tasklib.Value, error) {
			consumed.Add(1)
			return []tasklib.Value{1.0}, nil
		}},
	} {
		spec.Library = "test"
		if err := r.engine.Reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	g := afg.NewGraph("unfired")
	vg := g.AddTask("Vector_Generate", "matrix", 0, 1)
	boom := g.AddTask("Boom", "test", 0, 1)
	sink := g.AddTask("Consume", "test", 2, 1)
	if err := g.Connect(vg, 0, sink, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(boom, 0, sink, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, err := r.engine.Execute(context.Background(), g, onePerHost(r, g))
	if err == nil || !strings.Contains(err.Error(), "task 1 (Boom)") {
		t.Fatalf("err = %v, want the failing producer's", err)
	}
	if n := consumed.Load(); n != 0 {
		t.Fatalf("the consumer ran %d times", n)
	}
}
