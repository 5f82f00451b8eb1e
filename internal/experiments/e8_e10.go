package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
	"vdce/internal/workload"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// E8Prediction reproduces the §3 prediction core: per-(task, host)
// prediction error before and after the calibration loop (the Site
// Manager folding measured execution times back into the
// task-performance database). Tasks run for real with dilation, so
// measurements reflect host speed.
func E8Prediction(runs int) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Prediction error before/after measurement calibration",
		Header: []string{"round", "mean |err| %", "max |err| %"},
	}
	tb, local, g, id, err := e8Probe()
	if err != nil {
		return nil, err
	}
	site := tb.Sites[0]
	engine := &exec.Engine{
		Reg: tasklib.Default(), TB: tb, DilationScale: 1,
		Record: func(recs []protocol.ExecutionRecord) { site.Repo.RecordExecutions(recs) },
	}
	for round := 0; round < runs; round++ {
		var errSum, errMax float64
		samples := 0
		for _, h := range site.Hosts {
			table := &core.AllocationTable{App: "probe", Entries: []core.Placement{{
				Task: id, TaskName: "Spin", Site: site.Name,
				Hosts: []string{h.Name}, Predicted: time.Millisecond,
			}}}
			pred, err := local.PredictSet(g.Task(id), []string{h.Name})
			if err != nil {
				return nil, err
			}
			res, err := engine.Execute(context.Background(), g, table)
			if err != nil {
				return nil, err
			}
			meas := res.Runs[0].Elapsed
			e := math.Abs(float64(pred-meas)) / float64(meas) * 100
			errSum += e
			if e > errMax {
				errMax = e
			}
			samples++
		}
		t.Add(round, errSum/float64(samples), errMax)
	}
	t.Note("round 0 uses the static catalog parameters; later rounds blend per-host measurements")
	return t, nil
}

// e8Probe builds E8's fixture: one site of hosts spanning a 6x speed
// range with the task library installed, and a one-task graph (a 10 ms
// Spin) to predict and place on each of them.
func e8Probe() (tb *testbed.Testbed, local *core.LocalSite, g *afg.Graph, id afg.TaskID, err error) {
	tb, err = testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: 3, Seed: 41,
		SpeedMin: 0.5, SpeedMax: 3, BaseLoadMax: 0.05, LoadSigma: 0.001,
	})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	site := tb.Sites[0]
	names := make([]string, len(site.Hosts))
	for i, h := range site.Hosts {
		names[i] = h.Name
	}
	if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
		return nil, nil, nil, 0, err
	}
	g = afg.NewGraph("probe")
	id = g.AddTask("Spin", "util", 0, 1)
	if err := g.SetProps(id, afg.Properties{Args: map[string]string{"ms": "10"}}); err != nil {
		return nil, nil, nil, 0, err
	}
	return tb, core.NewLocalSite(site.Repo), g, id, nil
}

// E9Scale reproduces the scalability direction of §1/§5: wall-clock
// scheduler decision time as sites, hosts, and task counts grow.
func E9Scale(shapes [][3]int, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Scheduler decision time",
		Header: []string{"sites", "hosts/site", "tasks", "decision time (ms)"},
	}
	for _, shape := range shapes {
		sites, hosts, tasks := shape[0], shape[1], shape[2]
		c, err := newCluster(sites, hosts, seed)
		if err != nil {
			return nil, err
		}
		w, err := workload.Layered(workload.Params{Tasks: tasks, CCR: 1, Seed: seed})
		if err != nil {
			return nil, err
		}
		if err := c.install(w); err != nil {
			return nil, err
		}
		pol := vdcePolicy(sites-1, core.LevelPriority)
		t0 := time.Now()
		if _, err := pol.run(c, w); err != nil {
			return nil, err
		}
		elapsed := time.Since(t0)
		t.Add(sites, hosts, tasks, fmt.Sprintf("%.2f", float64(elapsed)/float64(time.Millisecond)))
	}
	t.Note("growth is near-linear in tasks x sites x hosts (Fig. 3 is a full scan per task)")
	return t, nil
}

// E10DataManager reproduces §4.2: the socket-based point-to-point
// channel path. A two-task producer/consumer application moves payloads
// of increasing size through the engine's Data Manager endpoint over
// loopback TCP; reported throughput includes slot registration (channel
// set-up and acknowledgment) and the startup signal, and the first row
// also pays for opening the endpoint and dialing the producer's stream.
// The "wire bytes" column is the engine's own tally of encoded value
// bytes written to the stream for that row.
func E10DataManager(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "Data Manager channel throughput (real TCP, loopback)",
		Header: []string{"payload", "wall time", "MB/s", "wire bytes"},
	}
	tb, err := testbed.Build(testbed.Config{
		Sites: 1, HostsPerGroup: 2, Seed: 51,
		SpeedMin: 1, SpeedMax: 1, BaseLoadMax: 0.01,
	})
	if err != nil {
		return nil, err
	}
	site := tb.Sites[0]
	names := []string{site.Hosts[0].Name, site.Hosts[1].Name}
	if err := tasklib.Default().InstallInto(site.Repo, names); err != nil {
		return nil, err
	}
	engine := &exec.Engine{Reg: tasklib.Default(), TB: tb}
	defer engine.Close()
	for _, n := range sizes {
		g := afg.NewGraph("xfer")
		gen := g.AddTask("Matrix_Generate", "matrix", 0, 1)
		sink := g.AddTask("Checksum", "util", 1, 1)
		if err := g.SetProps(gen, afg.Properties{Args: map[string]string{"n": fmt.Sprint(n), "seed": "1"}}); err != nil {
			return nil, err
		}
		payload := int64(n) * int64(n) * 8
		if err := g.Connect(gen, 0, sink, 0, payload); err != nil {
			return nil, err
		}
		table := &core.AllocationTable{App: "xfer", Entries: []core.Placement{
			{Task: gen, TaskName: "Matrix_Generate", Site: site.Name,
				Hosts: []string{names[0]}, Predicted: time.Millisecond},
			{Task: sink, TaskName: "Checksum", Site: site.Name,
				Hosts: []string{names[1]}, Predicted: time.Millisecond},
		}}
		sent := engine.TransferStats().Bytes
		t0 := time.Now()
		if _, err := engine.Execute(context.Background(), g, table); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		mbps := float64(payload) / 1e6 / wall.Seconds()
		t.Add(fmt.Sprintf("%dx%d (%.1f MB)", n, n, float64(payload)/1e6),
			wall.Round(time.Millisecond).String(), fmt.Sprintf("%.1f", mbps),
			engine.TransferStats().Bytes-sent)
	}
	t.Note("includes generation + encode, frame, loopback TCP, checksum, decode + the Checksum task; sizes sweep the channel path")
	return t, nil
}
