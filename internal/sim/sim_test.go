package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/netmodel"
)

// mkNet builds a two-site network with a known link.
func mkNet(t *testing.T) *netmodel.Network {
	t.Helper()
	n, err := netmodel.New([]string{"s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("s1", "s2", netmodel.Link{Latency: 10 * time.Millisecond, BytesPerSec: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("s1", "s1", netmodel.Link{Latency: 0, BytesPerSec: 1e12}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLink("s2", "s2", netmodel.Link{Latency: 0, BytesPerSec: 1e12}); err != nil {
		t.Fatal(err)
	}
	return n
}

// chainGraph builds t0 -> t1 -> t2 with the given edge size.
func chainGraph(size int64) *afg.Graph {
	g := afg.NewGraph("chain")
	a := g.AddTask("A", "l", 0, 1)
	b := g.AddTask("B", "l", 1, 1)
	c := g.AddTask("C", "l", 1, 0)
	_ = g.Connect(a, 0, b, 0, size)
	_ = g.Connect(b, 0, c, 0, size)
	return g
}

func table(app string, entries ...core.Placement) *core.AllocationTable {
	return &core.AllocationTable{App: app, Entries: entries}
}

func TestChainSameHostSerializes(t *testing.T) {
	g := chainGraph(0)
	net := mkNet(t)
	tb := table("chain",
		core.Placement{Task: 0, TaskName: "A", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
		core.Placement{Task: 1, TaskName: "B", Site: "s1", Hosts: []string{"h"}, Predicted: 2 * time.Second},
		core.Placement{Task: 2, TaskName: "C", Site: "s1", Hosts: []string{"h"}, Predicted: 3 * time.Second},
	)
	res, err := Run(g, tb, net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6*time.Second {
		t.Fatalf("makespan = %v, want 6s", res.Makespan)
	}
	if res.InterSiteTransfers != 0 || res.InterSiteBytes != 0 {
		t.Fatal("phantom inter-site traffic")
	}
}

func TestChainCrossSitePaysTransfer(t *testing.T) {
	g := chainGraph(1e6) // 1 MB at 1 MB/s = 1s + 10ms latency
	net := mkNet(t)
	tb := table("chain",
		core.Placement{Task: 0, TaskName: "A", Site: "s1", Hosts: []string{"h1"}, Predicted: time.Second},
		core.Placement{Task: 1, TaskName: "B", Site: "s2", Hosts: []string{"h2"}, Predicted: time.Second},
		core.Placement{Task: 2, TaskName: "C", Site: "s2", Hosts: []string{"h2"}, Predicted: time.Second},
	)
	res, err := Run(g, tb, net)
	if err != nil {
		t.Fatal(err)
	}
	// t0: [0,1]; transfer 1.01s; t1: [2.01, 3.01]; t2 same site, zero-size?
	// size 1e6 within s2 at 1e12 B/s ~ 1us — call it negligible but
	// nonzero; assert a window instead of equality.
	if res.Makespan < 4*time.Second+10*time.Millisecond || res.Makespan > 4*time.Second+20*time.Millisecond {
		t.Fatalf("makespan = %v", res.Makespan)
	}
	if res.InterSiteTransfers != 1 || res.InterSiteBytes != 1e6 {
		t.Fatalf("inter-site accounting: %d transfers %dB", res.InterSiteTransfers, res.InterSiteBytes)
	}
}

func TestDiamondParallelBranches(t *testing.T) {
	g := afg.NewGraph("diamond")
	a := g.AddTask("A", "l", 0, 2)
	b := g.AddTask("B", "l", 1, 1)
	c := g.AddTask("C", "l", 1, 1)
	d := g.AddTask("D", "l", 2, 0)
	_ = g.Connect(a, 0, b, 0, 0)
	_ = g.Connect(a, 1, c, 0, 0)
	_ = g.Connect(b, 0, d, 0, 0)
	_ = g.Connect(c, 0, d, 1, 0)
	net := mkNet(t)
	// B and C on different hosts: they overlap, makespan = 1 + 2 + 1.
	tb := table("d",
		core.Placement{Task: a, TaskName: "A", Site: "s1", Hosts: []string{"h1"}, Predicted: time.Second},
		core.Placement{Task: b, TaskName: "B", Site: "s1", Hosts: []string{"h1"}, Predicted: 2 * time.Second},
		core.Placement{Task: c, TaskName: "C", Site: "s1", Hosts: []string{"h2"}, Predicted: 2 * time.Second},
		core.Placement{Task: d, TaskName: "D", Site: "s1", Hosts: []string{"h1"}, Predicted: time.Second},
	)
	res, err := Run(g, tb, net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 4*time.Second {
		t.Fatalf("parallel-branch makespan = %v, want 4s", res.Makespan)
	}
	// Same-host placement serializes: 1 + 2 + 2 + 1.
	tb.Entries[2].Hosts = []string{"h1"}
	res2, err := Run(g, tb, net)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != 6*time.Second {
		t.Fatalf("serialized makespan = %v, want 6s", res2.Makespan)
	}
}

func TestMultiHostTaskOccupiesAll(t *testing.T) {
	g := afg.NewGraph("par")
	p := g.AddTask("P", "l", 0, 1)
	q := g.AddTask("Q", "l", 0, 1)
	_ = g.SetProps(p, afg.Properties{Mode: afg.Parallel, Nodes: 2})
	net := mkNet(t)
	tb := table("par",
		core.Placement{Task: p, TaskName: "P", Site: "s1", Hosts: []string{"h1", "h2"}, Predicted: 2 * time.Second},
		core.Placement{Task: q, TaskName: "Q", Site: "s1", Hosts: []string{"h2"}, Predicted: time.Second},
	)
	res, err := Run(g, tb, net)
	if err != nil {
		t.Fatal(err)
	}
	// Q must wait for the parallel task to release h2.
	if res.Times[q].Start != 2*time.Second {
		t.Fatalf("Q started at %v while h2 busy", res.Times[q].Start)
	}
}

func TestRunRejectsBadTables(t *testing.T) {
	g := chainGraph(0)
	net := mkNet(t)
	// Missing a task.
	bad := table("x",
		core.Placement{Task: 0, TaskName: "A", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
	)
	if _, err := Run(g, bad, net); err == nil {
		t.Fatal("short table accepted")
	}
	// Non-topological order.
	bad2 := table("x",
		core.Placement{Task: 1, TaskName: "B", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
		core.Placement{Task: 0, TaskName: "A", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
		core.Placement{Task: 2, TaskName: "C", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
	)
	if _, err := Run(g, bad2, net); err == nil {
		t.Fatal("non-topological table accepted")
	}
	// Unknown site.
	bad3 := table("x",
		core.Placement{Task: 0, TaskName: "A", Site: "mars", Hosts: []string{"h"}, Predicted: time.Second},
		core.Placement{Task: 1, TaskName: "B", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
		core.Placement{Task: 2, TaskName: "C", Site: "s1", Hosts: []string{"h"}, Predicted: time.Second},
	)
	if _, err := Run(g, bad3, net); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// Property: for random DAGs with random single-site placements, the
// simulator's own invariant checker passes, the makespan is at least the
// longest single task, and at most the serial sum of all tasks plus all
// transfer times (single-site placements have zero transfer).
func TestSimProperty(t *testing.T) {
	net := mkNet(t)
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw)%20 + 1
		g := afg.NewGraph("rand")
		for i := 0; i < n; i++ {
			g.AddTask("T", "l", n, n)
		}
		port := make([]int, n)
		for to := 1; to < n; to++ {
			for p := 0; p < rng.Intn(3); p++ {
				from := rng.Intn(to)
				_ = g.Connect(afg.TaskID(from), p, afg.TaskID(to), port[to], 0)
				port[to]++
			}
		}
		hosts := []string{"h1", "h2", "h3"}
		tb := &core.AllocationTable{App: "rand"}
		order, err := g.TopoSort()
		if err != nil {
			return false
		}
		var serial time.Duration
		var longest time.Duration
		for _, id := range order {
			d := time.Duration(rng.Intn(1000)+1) * time.Millisecond
			serial += d
			if d > longest {
				longest = d
			}
			tb.Entries = append(tb.Entries, core.Placement{
				Task: id, TaskName: "T", Site: "s1",
				Hosts: []string{hosts[rng.Intn(len(hosts))]}, Predicted: d,
			})
		}
		res, err := Run(g, tb, net)
		if err != nil {
			return false
		}
		return res.Makespan >= longest && res.Makespan <= serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
