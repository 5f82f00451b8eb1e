package experiments

import (
	"fmt"
	"time"
)

// Experiment couples an ID with a runner using the default parameters
// recorded in EXPERIMENTS.md. Quick mode shrinks sweeps for CI.
type Experiment struct {
	ID    string
	Title string
	Run   func(quick bool) (*Table, error)
}

// All returns the full E1-E8 suite in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Fig. 1 LES application flow graph", Run: func(quick bool) (*Table, error) {
			n := 1024
			if quick {
				n = 64
			}
			return E1LESBuild(n)
		}},
		{ID: "E2", Title: "Site Scheduler vs baselines", Run: func(quick bool) (*Table, error) {
			p := DefaultE2()
			if quick {
				p.TaskCounts = []int{20, 60}
				p.CCRs = []float64{0.1, 10}
			}
			return E2Schedulers(p)
		}},
		{ID: "E3", Title: "Host Selection vs oracle", Run: func(quick bool) (*Table, error) {
			steps := []int{0, 2, 8, 32}
			trials := 40
			if quick {
				steps = []int{0, 8}
				trials = 10
			}
			return E3HostSelection(steps, trials, 13)
		}},
		{ID: "E4", Title: "k-nearest site locality", Run: func(quick bool) (*Table, error) {
			ks := []int{1, 2, 4, 7}
			tasks := 120
			if quick {
				ks = []int{1, 7}
				tasks = 40
			}
			return E4Locality(ks, tasks, 5, 17)
		}},
		{ID: "E5", Title: "Group Manager change filtering", Run: func(quick bool) (*Table, error) {
			thr := []float64{0, 0.02, 0.05, 0.1, 0.2}
			hosts, rounds := 64, 200
			if quick {
				thr = []float64{0, 0.1}
				hosts, rounds = 8, 50
			}
			return E5Monitoring(thr, hosts, rounds, 19)
		}},
		{ID: "E6", Title: "Echo failure detection latency", Run: func(quick bool) (*Table, error) {
			periods := []time.Duration{250 * time.Millisecond, time.Second, 4 * time.Second}
			trials := 64
			if quick {
				periods = []time.Duration{time.Second}
				trials = 8
			}
			return E6FailureDetect(periods, trials, 23)
		}},
		{ID: "E7", Title: "Load-threshold rescheduling", Run: func(quick bool) (*Table, error) {
			spin := 60
			if quick {
				spin = 25
			}
			return E7Reschedule(spin, 0.9)
		}},
		{ID: "E8", Title: "Prediction calibration", Run: func(quick bool) (*Table, error) {
			runs := 5
			if quick {
				runs = 2
			}
			return E8Prediction(runs)
		}},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
