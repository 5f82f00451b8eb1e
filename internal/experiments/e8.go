package experiments

import (
	"context"
	"math"
	"math/rand"
	"time"

	"vdce/internal/afg"
	"vdce/internal/core"
	"vdce/internal/exec"
	"vdce/internal/protocol"
	"vdce/internal/tasklib"
	"vdce/internal/testbed"
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
