package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"vdce"
	"vdce/internal/afg"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
)

// spec is one workload: what is submitted, at what fixed rate, against
// which deployment shape. Rates are constants, chosen at or below 40 %
// of the closed-loop capacity measured on a shared 2-core machine
// (README.md lists capacity beside each rate), so a run measures latency
// at a sustained arrival rate rather than the machine's mood at
// saturation.
type spec struct {
	name string
	// server drives a spawned vdce-server over HTTP + SSE instead of an
	// in-process Environment.
	server bool
	// rate is the offered load in jobs per second; burst jobs are due
	// together every burst/rate seconds (1 = evenly paced).
	rate  float64
	burst int
	// scanEvery is how many submissions lie between two full cursor
	// walks of the job board by the generator (0 = the workload has no
	// monitoring client).
	scanEvery int
	owners    int
	// fairShare submits every job with its owner's share weight and a
	// drawn priority instead of the account defaults, so weighted fair
	// queuing and priority ordering have something to arbitrate.
	fairShare bool
	// retained overrides PipelineConfig.MaxRetainedJobs (0 = default).
	retained int
	// graphs builds the workload's distinct application flow graphs.
	graphs func(seed int64) ([]*afg.Graph, error)
}

var specs = []spec{
	{
		// Six tiny tasks and five edges per job: exec channel set-up and
		// per-message encode/dial dominate, compute and control plane
		// are a few percent.
		name: "c3i-stream", rate: 300, burst: 1, owners: 8,
		graphs: func(seed int64) ([]*afg.Graph, error) { return c3iGraphs(16, seed) },
	},
	{
		// tasklib compute dominates; exec moves few large matrices
		// instead of many tiny messages.
		name: "les-bulk", rate: 30, burst: 1, owners: 8, retained: 256,
		graphs: func(seed int64) ([]*afg.Graph, error) { return lesGraphs(8, 160, seed) },
	},
	{
		// Single-task jobs in bursts from many weighted owners: exec
		// does almost nothing, so admission, the scheduler round, board
		// publish and the event broker carry the cost, with listing
		// reads running beside publish writes.
		name: "ctl-churn", rate: 1200, burst: 48, scanEvery: 240, owners: 64, fairShare: true, retained: 8192,
		graphs: func(seed int64) ([]*afg.Graph, error) { return vectorGraphs(16, seed) },
	},
	{
		// The production shape: RPC, daemons, detector, breakers, WAL,
		// editor and jobs API over HTTP, completion observed on SSE.
		name: "server-sse", server: true, rate: 80, burst: 1, scanEvery: 40, owners: 1,
		graphs: func(seed int64) ([]*afg.Graph, error) {
			c3i, err := c3iGraphs(12, seed)
			if err != nil {
				return nil, err
			}
			les, err := lesGraphs(4, 64, seed)
			if err != nil {
				return nil, err
			}
			return append(c3i, les...), nil
		},
	},
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// jobs is how many jobs a window of the given length offers: whole
// bursts only, at least one.
func (s spec) jobs(seconds float64) int {
	n := int(s.rate*seconds) / s.burst * s.burst
	if n < s.burst {
		n = s.burst
	}
	return n
}

// testbedSeed fixes the fabricated hardware. The run's seed draws the
// graphs' data and the job mix, not the machines: host speeds decide
// which hosts every job's tasks queue on, and a testbed redrawn per seed
// moved turnaround by more between seeds than any code change would.
const testbedSeed = 41

// envConfig is the in-process deployment every in-process workload
// shares.
func (s spec) envConfig() vdce.Config {
	return vdce.Config{
		Testbed:  testbed.Config{Sites: 4, HostsPerGroup: 3, Seed: testbedSeed, BaseLoadMax: 0.2},
		Pipeline: vdce.PipelineConfig{MaxRetainedJobs: s.retained},
	}
}

// clearMachineTypes drops machine-type preferences so any fabricated
// testbed host is eligible (the seed's testbed need not contain the
// platform a built-in graph prefers).
func clearMachineTypes(g *afg.Graph) {
	for _, task := range g.Tasks {
		task.Props.MachineType = ""
	}
}

func c3iGraphs(n int, seed int64) ([]*afg.Graph, error) {
	out := make([]*afg.Graph, n)
	for i := range out {
		g, err := tasklib.BuildC3IPipeline(6+i%3, seed*1000+int64(i)+1)
		if err != nil {
			return nil, err
		}
		clearMachineTypes(g)
		g.Name = fmt.Sprintf("c3i-%d", i)
		out[i] = g
	}
	return out, nil
}

func lesGraphs(n, size int, seed int64) ([]*afg.Graph, error) {
	out := make([]*afg.Graph, n)
	for i := range out {
		g, err := tasklib.BuildLinearEquationSolver(size, seed*1000+int64(2*i)+1)
		if err != nil {
			return nil, err
		}
		clearMachineTypes(g)
		g.Name = fmt.Sprintf("les%d-%d", size, i)
		out[i] = g
	}
	return out, nil
}

// vectorGraphs builds single-task Vector_Generate(n=8) applications.
func vectorGraphs(n int, seed int64) ([]*afg.Graph, error) {
	out := make([]*afg.Graph, n)
	for i := range out {
		g := afg.NewGraph(fmt.Sprintf("vec-%d", i))
		id := g.AddTask("Vector_Generate", "matrix", 0, 1)
		if err := g.SetProps(id, afg.Properties{
			Args: map[string]string{"n": "8", "seed": strconv.FormatInt(seed*1000+int64(i)+1, 10)},
		}); err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// edgeBytes is the graph's declared dataflow volume: the bytes the Data
// Manager is asked to move per job.
func edgeBytes(g *afg.Graph) int64 {
	var sum int64
	for _, e := range g.Edges {
		sum += g.EdgeSize(e)
	}
	return sum
}

// pick is one job's draw from the seed.
type pick struct {
	graph, owner, priority int
}

// picker draws the job mix: which graph, which owner, which priority.
// The same seed yields the same sequence.
type picker struct {
	rng            *rand.Rand
	graphs, owners int
}

func newPicker(seed int64, graphs, owners int) *picker {
	return &picker{rng: rand.New(rand.NewSource(seed)), graphs: graphs, owners: owners}
}

func (p *picker) next() pick {
	return pick{
		graph:    p.rng.Intn(p.graphs),
		owner:    p.rng.Intn(p.owners),
		priority: p.rng.Intn(10),
	}
}

func ownerName(i int) string { return fmt.Sprintf("owner-%02d", i) }

// ownerWeight is owner i's fair-share weight, 1 to 4.
func ownerWeight(i int) int { return 1 + i%4 }
