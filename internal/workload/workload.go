// Package workload generates the synthetic application flow graphs the
// benchmark harness sweeps over: the standard DAG families of the list
// scheduling literature (layered random graphs, fork-join, in/out trees,
// Gaussian elimination, FFT butterflies) parameterized by task count and
// communication-to-computation ratio (CCR).
//
// Each generated node carries a unique synthetic task name; Install
// registers per-node performance parameters into a site repository so
// the scheduler's prediction phase sees the same heterogeneous costs the
// level computation uses.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
)

// Graph couples an AFG with per-task costs for level computation and
// scheduling (seconds on the base processor).
type Graph struct {
	G *afg.Graph
	// Costs[i] is the base-processor execution time of task i.
	Costs []time.Duration
}

// CostFunc adapts Costs to afg.Levels.
func (w *Graph) CostFunc() afg.CostFunc {
	return func(id afg.TaskID) float64 { return w.Costs[id].Seconds() }
}

// Install registers every synthetic task's performance parameters (and
// executable locations on the given hosts) into a site repository, the
// way real task libraries populate the task-performance and
// task-constraints databases. Each node has a unique task name so its
// cost is individually predictable.
func (w *Graph) Install(repo *repository.Repository, hosts []string) error {
	for i, task := range w.G.Tasks {
		cost := w.Costs[i]
		if err := repo.TaskPerf.RegisterTask(repository.TaskParams{
			Name:           task.Name,
			ComputationOps: cost.Seconds() * 100e6, // default predictor base rate
			BaseTime:       cost,
			Parallelizable: false,
		}); err != nil {
			return err
		}
		for _, h := range hosts {
			if err := repo.Constraints.SetLocation(task.Name, h, "/opt/vdce/tasks/synthetic"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Params control generation.
type Params struct {
	// Tasks is the number of nodes (minimum 1).
	Tasks int
	// CCR is the communication-to-computation ratio: mean bytes per edge
	// are chosen so that transferring one edge at 1 MB/s costs CCR times
	// the mean task execution time.
	CCR float64
	// MeanCost is the mean task cost; default 100ms.
	MeanCost time.Duration
	// Seed drives all randomness.
	Seed int64
	// Width bounds the layer width for layered graphs; default sqrt(n).
	Width int
}

func (p *Params) fill() {
	if p.Tasks < 1 {
		p.Tasks = 1
	}
	if p.MeanCost <= 0 {
		p.MeanCost = 100 * time.Millisecond
	}
	if p.CCR < 0 {
		p.CCR = 0
	}
}

// edgeBytes converts the CCR into an edge payload: CCR * meanCost seconds
// of transfer at the nominal 1 MB/s WAN bandwidth.
func (p *Params) edgeBytes(rng *rand.Rand) int64 {
	if p.CCR == 0 {
		return 0
	}
	mean := p.CCR * p.MeanCost.Seconds() * 1e6 // bytes
	// Uniform in [0.5, 1.5) x mean keeps sizes positive and varied.
	return int64(mean * (0.5 + rng.Float64()))
}

// cost draws a task cost uniform in [0.5, 1.5) x mean.
func (p *Params) cost(rng *rand.Rand) time.Duration {
	return time.Duration(float64(p.MeanCost) * (0.5 + rng.Float64()))
}

// newGraph allocates the AFG shell with n synthetic tasks (uniquely
// named so each can carry its own performance parameters). Synthetic
// nodes get generous port counts so generators can wire freely.
func newGraph(name string, n int) *afg.Graph {
	g := afg.NewGraph(name)
	for i := 0; i < n; i++ {
		g.AddTask(fmt.Sprintf("syn-%04d", i), "synthetic", n, n)
	}
	return g
}

// Layered generates the Tobita-Kasahara-style random layered DAG: tasks
// are split into layers; each non-entry task draws 1-3 parents from the
// previous layer.
func Layered(p Params) (*Graph, error) {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Tasks
	width := p.Width
	if width <= 0 {
		width = intSqrt(n)
	}
	g := newGraph(fmt.Sprintf("layered-%d", n), n)
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = p.cost(rng)
	}
	// Assign tasks to layers of random width <= width.
	var layers [][]afg.TaskID
	next := 0
	for next < n {
		w := rng.Intn(width) + 1
		if next+w > n {
			w = n - next
		}
		layer := make([]afg.TaskID, w)
		for i := range layer {
			layer[i] = afg.TaskID(next + i)
		}
		layers = append(layers, layer)
		next += w
	}
	inPort := make([]int, n)
	for li := 1; li < len(layers); li++ {
		prev := layers[li-1]
		for _, id := range layers[li] {
			parents := rng.Intn(3) + 1
			if parents > len(prev) {
				parents = len(prev)
			}
			for _, pi := range rng.Perm(len(prev))[:parents] {
				from := prev[pi]
				if err := g.Connect(from, 0, id, inPort[id], p.edgeBytes(rng)); err != nil {
					return nil, err
				}
				inPort[id]++
			}
		}
	}
	return finish(g, costs)
}

// ForkJoin generates alternating fork and join stages: a chain of
// 1 -> w -> 1 -> w ... shapes.
func ForkJoin(p Params) (*Graph, error) {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Tasks
	width := p.Width
	if width <= 0 {
		width = intSqrt(n)
		if width < 2 {
			width = 2
		}
	}
	g := newGraph(fmt.Sprintf("forkjoin-%d", n), n)
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = p.cost(rng)
	}
	inPort := make([]int, n)
	connect := func(from, to afg.TaskID) error {
		err := g.Connect(from, 0, to, inPort[to], p.edgeBytes(rng))
		inPort[to]++
		return err
	}
	// Walk IDs in order: node 0 is the first hub; then groups of width
	// fan-out nodes joined by the next hub, repeating.
	hub := afg.TaskID(0)
	i := 1
	for i < n {
		w := width
		if i+w >= n {
			w = n - i - 1 // leave room for a join node if possible
		}
		if w <= 0 {
			// Tail: chain the remaining node(s).
			if err := connect(hub, afg.TaskID(i)); err != nil {
				return nil, err
			}
			hub = afg.TaskID(i)
			i++
			continue
		}
		var stage []afg.TaskID
		for k := 0; k < w; k++ {
			id := afg.TaskID(i + k)
			if err := connect(hub, id); err != nil {
				return nil, err
			}
			stage = append(stage, id)
		}
		i += w
		if i < n {
			join := afg.TaskID(i)
			for _, s := range stage {
				if err := connect(s, join); err != nil {
					return nil, err
				}
			}
			hub = join
			i++
		}
	}
	return finish(g, costs)
}

// GaussianElimination generates the classic GE task graph for an m x m
// system: pivot tasks chained down the diagonal, each fanning out to the
// update tasks of its trailing submatrix column. Total tasks =
// m + (m-1) + ... ≈ m(m+1)/2 - 1; Params.Tasks selects the smallest m
// whose graph has at least that many tasks.
func GaussianElimination(p Params) (*Graph, error) {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	m := 2
	for geTasks(m) < p.Tasks {
		m++
	}
	n := geTasks(m)
	g := newGraph(fmt.Sprintf("gauss-%d(m=%d)", n, m), n)
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = p.cost(rng)
	}
	inPort := make([]int, n)
	connect := func(from, to afg.TaskID) error {
		err := g.Connect(from, 0, to, inPort[to], p.edgeBytes(rng))
		inPort[to]++
		return err
	}
	// Task layout per elimination step k (0-based): one pivot task, then
	// m-k-1 update tasks.
	id := 0
	prevUpd := []int(nil) // previous step's update tasks, by trailing column
	for k := 0; k < m-1; k++ {
		pivot := id
		id++
		if k > 0 {
			// Pivot depends on the first update task of the previous step.
			if err := connect(afg.TaskID(prevUpd[0]), afg.TaskID(pivot)); err != nil {
				return nil, err
			}
		}
		updates := make([]int, 0, m-k-1)
		for j := 0; j < m-k-1; j++ {
			u := id
			id++
			if err := connect(afg.TaskID(pivot), afg.TaskID(u)); err != nil {
				return nil, err
			}
			// Each update also depends on the corresponding update of the
			// previous step (data dependence on the trailing matrix).
			if k > 0 && j+1 < len(prevUpd) {
				if err := connect(afg.TaskID(prevUpd[j+1]), afg.TaskID(u)); err != nil {
					return nil, err
				}
			}
			updates = append(updates, u)
		}
		prevUpd = updates
	}
	return finish(g, costs)
}

func geTasks(m int) int {
	// For each step k in [0, m-2]: 1 pivot + (m-k-1) updates.
	total := 0
	for k := 0; k < m-1; k++ {
		total += 1 + (m - k - 1)
	}
	return total
}

// FFT generates the butterfly graph of an N-point FFT (N a power of two):
// log2(N) ranks of N nodes, each node depending on two nodes of the
// previous rank. Params.Tasks selects the smallest N with at least that
// many tasks.
func FFT(p Params) (*Graph, error) {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	N := 2
	for N*(log2(N)+1) < p.Tasks {
		N *= 2
	}
	ranks := log2(N) + 1
	n := N * ranks
	g := newGraph(fmt.Sprintf("fft-%d(N=%d)", n, N), n)
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = p.cost(rng)
	}
	inPort := make([]int, n)
	node := func(rank, i int) afg.TaskID { return afg.TaskID(rank*N + i) }
	for r := 1; r < ranks; r++ {
		span := N >> r
		for i := 0; i < N; i++ {
			partner := i ^ span
			for _, from := range []afg.TaskID{node(r-1, i), node(r-1, partner)} {
				if err := g.Connect(from, 0, node(r, i), inPort[node(r, i)], p.edgeBytes(rng)); err != nil {
					return nil, err
				}
				inPort[node(r, i)]++
			}
		}
	}
	return finish(g, costs)
}

// InTree generates a reduction tree with the given fan-in (default 2):
// leaves feed parents until a single root remains.
func InTree(p Params) (*Graph, error) {
	p.fill()
	rng := rand.New(rand.NewSource(p.Seed))
	n := p.Tasks
	fanin := 2
	g := newGraph(fmt.Sprintf("intree-%d", n), n)
	costs := make([]time.Duration, n)
	for i := range costs {
		costs[i] = p.cost(rng)
	}
	// Children of node i are fanin*i+1 ... fanin*i+fanin (heap layout),
	// edges point child -> parent (reduction).
	inPort := make([]int, n)
	for i := 1; i < n; i++ {
		parent := (i - 1) / fanin
		if err := g.Connect(afg.TaskID(i), 0, afg.TaskID(parent), inPort[parent], p.edgeBytes(rng)); err != nil {
			return nil, err
		}
		inPort[parent]++
	}
	return finish(g, costs)
}

func finish(g *afg.Graph, costs []time.Duration) (*Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Graph{G: g, Costs: costs}, nil
}

func intSqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func log2(n int) int {
	l := 0
	for 1<<uint(l+1) <= n {
		l++
	}
	return l
}

// Family names a generator for table-driven sweeps.
type Family struct {
	Name string
	Gen  func(Params) (*Graph, error)
}

// Families returns the standard set used by E2.
func Families() []Family {
	return []Family{
		{Name: "layered", Gen: Layered},
		{Name: "forkjoin", Gen: ForkJoin},
		{Name: "gauss", Gen: GaussianElimination},
		{Name: "fft", Gen: FFT},
		{Name: "intree", Gen: InTree},
	}
}
