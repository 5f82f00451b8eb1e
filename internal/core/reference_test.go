package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vdce/internal/afg"
	"vdce/internal/repository"
)

// rankedHost is one eligible host with its predicted single-node
// execution time for a task.
type rankedHost struct {
	Name   string
	Single time.Duration
}

// rankedAt is the site's full ranking of task as of snap, read from the
// same kept order ChooseAt reads.
func rankedAt(s *LocalSite, snap *repository.Snapshot, task *afg.Task) []rankedHost {
	r, m := s.sortedAt(snap, task), snap.Measurements(task.Name)
	out := make([]rankedHost, len(r.rank))
	for k, i := range r.rank {
		d, ok := m.On(r.names[i])
		out[k] = rankedHost{Name: r.names[i], Single: r.single(i, d, ok)}
	}
	return out
}

// referenceRanking is Fig. 3's ranking with no cache: Predict on every
// eligible up host of snap, stably sorted by (prediction, name).
func referenceRanking(s *LocalSite, snap *repository.Snapshot, task *afg.Task) []rankedHost {
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return nil
	}
	var out []rankedHost
	for _, h := range snap.UpHosts() {
		if !s.Repo.Constraints.HasTask(task.Name, h.HostName) {
			continue
		}
		if mt := task.Props.MachineType; mt != "" && mt != afg.AnyMachine && h.MachineType() != mt {
			continue
		}
		if hp := task.Props.Host; hp != "" && hp != afg.AnyMachine && h.HostName != hp {
			continue
		}
		var measured *time.Duration
		if d, ok := snap.Measurements(task.Name).On(h.HostName); ok {
			measured = &d
		}
		d, err := s.Oracle.P.Predict(params, h, 1, measured)
		if err != nil {
			continue
		}
		out = append(out, rankedHost{Name: h.HostName, Single: d})
	}
	slices.SortStableFunc(out, func(a, b rankedHost) int {
		if c := cmp.Compare(a.Single, b.Single); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// referenceChoice cuts the reference ranking, less the hosts skip drops,
// at the task's node count.
func referenceChoice(s *LocalSite, snap *repository.Snapshot, task *afg.Task, skip func(string) bool) HostChoice {
	if _, err := snap.TaskParams(task.Name); err != nil {
		return HostChoice{Site: s.SiteName(), Err: err.Error()}
	}
	var usable []string
	for _, r := range referenceRanking(s, snap, task) {
		if skip == nil || !skip(r.Name) {
			usable = append(usable, r.Name)
		}
	}
	nodes := RequiredNodesAt(snap, task)
	switch {
	case len(usable) == 0:
		return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf("no eligible host for %s", task.Name)}
	case nodes > len(usable):
		return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf(
			"parallel task %s wants %d nodes, site has %d eligible", task.Name, nodes, len(usable))}
	}
	hosts := usable[:nodes]
	d, err := s.PredictSetAt(snap, task, hosts)
	if err != nil {
		return HostChoice{Site: s.SiteName(), Err: err.Error()}
	}
	return HostChoice{Site: s.SiteName(), Hosts: hosts, Predicted: d}
}

func sameChoice(a, b HostChoice) bool {
	return a.Site == b.Site && a.Err == b.Err && a.Predicted == b.Predicted && slices.Equal(a.Hosts, b.Hosts)
}

// fig3Fixture is a site of eight hosts of two machine types, three of
// them identical (their model estimates tie), and one graph holding a
// task under every kind of preference: none, a machine type, a host
// pin, and 2- and 3-node parallel runs, one of them typed.
type fig3Fixture struct {
	s     *LocalSite
	g     *afg.Graph
	hosts []string
	tasks []string // the library tasks the graph names
}

func newFig3Fixture(t *testing.T) fig3Fixture {
	t.Helper()
	specs := []hostSpec{
		{name: "h0", speed: 1}, {name: "h1", speed: 1}, {name: "h2", speed: 1},
		{name: "h3", speed: 2, arch: "SGI", os: "IRIX"}, {name: "h4", speed: 0.5},
		{name: "h5", speed: 3, arch: "SGI", os: "IRIX"}, {name: "h6", speed: 1.5, load: 0.3},
		{name: "h7", speed: 2, arch: "SGI", os: "IRIX", load: 0.5},
	}
	f := fig3Fixture{s: mkSite(t, "s1", specs), g: afg.NewGraph("fig3")}
	for _, h := range specs {
		f.hosts = append(f.hosts, h.name)
	}
	for _, task := range []struct {
		name  string
		props afg.Properties
	}{
		{"Matrix_Multiplication", afg.Properties{}},
		{"Vector_Generate", afg.Properties{MachineType: "SUN Solaris"}},
		{"Matrix_Multiplication", afg.Properties{Host: "h6"}},
		{"LU_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 2}},
		{"Matrix_Inversion", afg.Properties{Mode: afg.Parallel, Nodes: 3}},
		{"Cholesky_Decomposition", afg.Properties{Mode: afg.Parallel, Nodes: 2, MachineType: "SGI IRIX"}},
		{"Vector_Generate", afg.Properties{Mode: afg.Parallel, Nodes: 2}}, // demoted: not parallelizable
	} {
		id := f.g.AddTask(task.name, "lib", 0, 0)
		if err := f.g.SetProps(id, task.props); err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(f.tasks, task.name) {
			f.tasks = append(f.tasks, task.name)
		}
	}
	return f
}

// step applies one random repository or predictor write; a fixture read
// by concurrent rounds passes tune false, since the predictor constants
// are read unsynchronized.
func (f fig3Fixture) step(t *testing.T, rng *rand.Rand, tune bool) {
	repo := f.s.Repo
	host := f.hosts[rng.Intn(len(f.hosts))]
	switch op := rng.Intn(12); {
	case op < 5: // a run's write-back
		recs := make([]repository.Execution, 1+rng.Intn(4))
		for i := range recs {
			recs[i] = repository.Execution{Task: f.tasks[rng.Intn(len(f.tasks))], Host: f.hosts[rng.Intn(len(f.hosts))],
				Elapsed: time.Duration(rng.Int63n(int64(3 * time.Second)))}
		}
		if _, err := repo.TaskPerf.RecordExecutions(recs, nil); err != nil {
			t.Fatal(err)
		}
	case op == 5: // a monitor sample, saturating now and then
		load := []float64{0, 0.1, 0.5, 0.9, 0.9995}[rng.Intn(5)]
		if err := repo.Resources.UpdateWorkload(host, repository.WorkloadSample{
			CPULoad: load, AvailMemBytes: rng.Int63n(2 << 30), Time: time.Now(),
		}); err != nil {
			t.Fatal(err)
		}
	case op == 6: // a status flip
		st := []repository.HostStatus{repository.HostUp, repository.HostDown, repository.HostQuarantined, repository.HostUp}[rng.Intn(4)]
		if _, err := repo.Resources.ApplyRound([]repository.RoundUpdate{{Host: host, Status: st}}); err != nil {
			t.Fatal(err)
		}
	case op < 9: // an install of the graph's tasks on one host
		for _, task := range f.tasks {
			if err := repo.Constraints.SetLocation(task, host, "/opt/vdce/lib"); err != nil {
				t.Fatal(err)
			}
		}
	case op == 9: // an uninstall of everything on one host
		repo.Constraints.RemoveHost(host)
	case op == 10: // a re-registration: new parameters, the measurements kept
		params, err := repo.TaskPerf.Params(f.tasks[rng.Intn(len(f.tasks))])
		if err != nil {
			t.Fatal(err)
		}
		params.ComputationOps *= []float64{0.5, 1, 2}[rng.Intn(3)]
		if err := repo.TaskPerf.RegisterTask(params); err != nil {
			t.Fatal(err)
		}
	case tune: // the blend ablation's knobs
		p := &f.s.Oracle.P
		switch rng.Intn(3) {
		case 0:
			p.MeasuredBlend = []float64{0, 0.3, 0.6, 1}[rng.Intn(4)]
		case 1:
			p.BaseOpsPerSec = []float64{50e6, 100e6, 400e6}[rng.Intn(3)]
		default:
			p.MemPenaltySlope = []float64{0, 4}[rng.Intn(2)]
		}
	}
}

// check compares every read of Fig. 3 against the reference, for every
// task of the graph, under one snapshot: the choices with and without
// exclusions first, then the full ranking.
func (f fig3Fixture) check(t *testing.T, rng *rand.Rand, seed int64, op int) {
	t.Helper()
	snap := f.s.Snapshot()
	mask := rng.Intn(1 << len(f.hosts))
	skip := func(h string) bool { return mask&(1<<(h[1]-'0')) != 0 }
	for id, task := range f.g.Tasks {
		if got, want := f.s.ChooseAt(snap, task, nil), referenceChoice(f.s, snap, task, nil); !sameChoice(got, want) {
			t.Fatalf("seed %d op %d task %d (%s %+v): ChooseAt %+v, reference %+v", seed, op, id, task.Name, task.Props, got, want)
		}
		if got, want := f.s.ChooseAt(snap, task, skip), referenceChoice(f.s, snap, task, skip); !sameChoice(got, want) {
			t.Fatalf("seed %d op %d task %d (%s %+v) skip %08b: ChooseAt %+v, reference %+v", seed, op, id, task.Name, task.Props, mask, got, want)
		}
		// Last: a full ranking re-sorts what the choices above read in part.
		want := referenceRanking(f.s, snap, task)
		if got := rankedAt(f.s, snap, task); !slices.Equal(got, want) {
			t.Fatalf("seed %d op %d task %d (%s %+v): rankedAt %v, reference %v", seed, op, id, task.Name, task.Props, got, want)
		}
	}
}

// TestFig3MatchesUncachedReference: after every write of a random
// stream — write-backs with random elapsed times, workload samples,
// status flips, installs and uninstalls, re-registrations and predictor
// changes — ChooseAt (with and without exclusions) and the full ranking
// answer exactly what Predict over every eligible host, sorted, answers:
// the same hosts in the same order and the same predictions.
func TestFig3MatchesUncachedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		f := newFig3Fixture(t)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			f.step(t, rng, true)
			f.check(t, rng, seed, op)
		}
	}
}

// TestFig3MatchesReferenceUnderConcurrentRounds is the same stream,
// less the predictor changes, with two rounds choosing concurrently
// throughout: orders they rebuild or re-sort from older snapshots may
// never reach a later choice. Run it under -race.
func TestFig3MatchesReferenceUnderConcurrentRounds(t *testing.T) {
	f := newFig3Fixture(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			skip := func(h string) bool { return int(h[1]-'0')%2 == w }
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := f.s.Snapshot()
				for _, task := range f.g.Tasks {
					f.s.ChooseAt(snap, task, nil)
					f.s.ChooseAt(snap, task, skip)
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			f.step(t, rng, false)
			f.check(t, rng, seed, op)
		}
	}
}
