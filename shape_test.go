package vdce

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"vdce/internal/afg"
	"vdce/internal/testbed"
)

// chainJobGraph is a zero-length Spin feeding a Pass_Through.
func chainJobGraph(name string) *afg.Graph {
	g := spinJobGraph(name, 0)
	pass := g.AddTask("Pass_Through", "util", 1, 1)
	if err := g.Connect(0, 0, pass, 0, 8); err != nil {
		panic(err)
	}
	return g
}

// TestOneAnalysisPerGraph: two submissions and a scheduling round of one
// unedited graph all read the analysis its first use made.
func TestOneAnalysisPerGraph(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 2, Seed: 5101}})
	g := chainJobGraph("memo")
	first, err := g.Shape()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for range 2 {
		if _, err := submitWait(ctx, env, g, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := env.Schedule(g, 1); err != nil {
		t.Fatal(err)
	}
	if s, err := g.Shape(); err != nil || s != first {
		t.Fatalf("after two jobs and a round: shape %p (%v), want the first analysis %p", s, err, first)
	}
}

// TestEditedGraphIsAnalysedAgain: a graph edited between two submissions
// is submitted as it now is. An added edge carries its data; a cycle or
// a port fed twice is refused at Submit, however many jobs the graph
// passed before.
func TestEditedGraphIsAnalysedAgain(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 1, HostsPerGroup: 3, Seed: 5102}})
	ctx := context.Background()
	g := spinJobGraph("edited", 0)
	pass := g.AddTask("Pass_Through", "util", 1, 1) // its port unfed: it passes nil on
	job, err := submitWait(ctx, env, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Result().Outputs[pass][0]; got != nil {
		t.Fatalf("unfed Pass_Through passed %v on", got)
	}
	if err := g.Connect(0, 0, pass, 0, 8); err != nil {
		t.Fatal(err)
	}
	if job, err = submitWait(ctx, env, g, 0); err != nil {
		t.Fatal(err)
	}
	res := job.Result()
	if got, want := res.Outputs[pass][0], res.Outputs[0][0]; got == nil || got != want {
		t.Fatalf("Pass_Through passed %v on, want the Spin's %v over the added edge", got, want)
	}

	g.Tasks[0].InPorts = 1
	if err := g.Connect(pass, 0, 0, 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Submit(ctx, g); !errors.Is(err, afg.ErrCycle) {
		t.Fatalf("Submit of the graph made cyclic: %v, want ErrCycle", err)
	}
	g.Edges = append(g.Edges[:1], g.Edges[0]) // the cycle's edge out, Pass_Through's port fed twice
	if _, err := env.Submit(ctx, g); err == nil || !strings.Contains(err.Error(), "multiply connected") {
		t.Fatalf("Submit of the graph with a port fed twice: %v", err)
	}
}

// TestConcurrentSubmissionsOfOneGraph: 32 goroutines submit one graph
// that no one has analysed yet, so its first analyses race; under -race
// this is the check that the kept analysis is shared safely.
func TestConcurrentSubmissionsOfOneGraph(t *testing.T) {
	env := newEnv(t, Config{Testbed: testbed.Config{Sites: 2, HostsPerGroup: 2, Seed: 5103}})
	g := chainJobGraph("shared")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := submitWait(context.Background(), env, g, 1)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
