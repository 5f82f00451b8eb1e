package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"vdce/internal/afg"
	"vdce/internal/predict"
	"vdce/internal/repository"
)

// LocalSite runs the Host Selection Algorithm (Fig. 3) against one
// site's repository:
//
//  1. Retrieve task-specific parameters of AFG tasks from the
//     task-performance database.
//  2. Retrieve resource-specific parameters from the
//     resource-performance database.
//  3. Set task-queue = all AFG tasks.
//  4. For each task, evaluate Predict(task, R) for all R and assign the
//     task to the R that minimizes it.
//
// For parallel tasks the algorithm "is updated to select the number of
// machines required within the site": it ranks hosts by single-node
// prediction, takes the required count, and predicts the parallel time
// on the slowest chosen machine.
//
// Every selection round reads one repository.Snapshot — a frozen
// copy-on-write epoch of the resource and task-performance databases —
// so monitor and failure-detection writes landing mid-round cannot tear
// the round's view of host workloads, statuses, or measurements. The
// task-constraints database (install-time state, written only during
// application registration) is read live: a concurrent install can make
// tasks within one round see different install sets, but the
// constraints write counter still invalidates affected cache entries.
// Per-task rankings are memoized in a generation-validated cache (see
// rankCache): an unchanged-state round is served from cache without
// re-running Predict over the catalog.
type LocalSite struct {
	Repo   *repository.Repository
	Oracle *predict.Oracle
	cache  rankCache
}

// NewLocalSite returns a LocalSite with a default-constant oracle.
func NewLocalSite(repo *repository.Repository) *LocalSite {
	return &LocalSite{Repo: repo, Oracle: predict.NewOracle(repo)}
}

// SiteName implements SiteService.
func (s *LocalSite) SiteName() string { return s.Repo.Site }

// Snapshot captures the site's current scheduling state; pass it to the
// *At methods to serve a whole round from one coherent view.
func (s *LocalSite) Snapshot() *repository.Snapshot { return s.Repo.Snapshot() }

// CacheStats reports the ranked-host cache counters.
func (s *LocalSite) CacheStats() RankCacheStats { return s.cache.stats() }

// HostSelection implements SiteService (Fig. 3). The whole graph is
// selected against a single snapshot.
func (s *LocalSite) HostSelection(g *afg.Graph) (Selection, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return s.selectInto(g, make(Selection, len(g.Tasks))), nil
}

// selectInto runs Fig. 3 into sel, one choice per task of g, without
// re-validating g — the in-process fast path for schedulers that
// validated the graph at the top of the round (validation walks the
// whole DAG; once per round is enough).
func (s *LocalSite) selectInto(g *afg.Graph, sel Selection) Selection {
	snap := s.Repo.Snapshot()
	for i, task := range g.Tasks {
		sel[i] = s.ChooseAt(snap, task, nil)
	}
	return sel
}

// RankedHost is one eligible host with its predicted single-node
// execution time for a task.
type RankedHost struct {
	Name   string
	Single time.Duration
}

// RankedHosts returns the task's eligible hosts sorted by ascending
// predicted single-node time (ties by name). An empty slice means the
// site cannot run the task. The returned slice may be shared with the
// cache and other callers: do not modify it.
func (s *LocalSite) RankedHosts(task *afg.Task) []RankedHost {
	return s.RankedHostsAt(s.Repo.Snapshot(), task)
}

// RankedHostsAt is RankedHosts against a caller-held snapshot. Rankings
// are served from the generation-validated cache when no repository
// write has touched the inputs since the last computation.
func (s *LocalSite) RankedHostsAt(snap *repository.Snapshot, task *afg.Task) []RankedHost {
	return s.rankAt(snap, task).ranked
}

// rankAt returns the task's ranking as of snap, from the cache when it
// can; never nil.
func (s *LocalSite) rankAt(snap *repository.Snapshot, task *afg.Task) *rankResult {
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return &rankResult{}
	}
	taskGen, _ := snap.TaskGeneration(task.Name)
	resGen := snap.ResourceGeneration()
	consGen := s.Repo.Constraints.Generation()

	e := s.cache.entry(keyFor(task))
	pred := s.Oracle.P
	hit := func(r *rankResult) bool {
		return r != nil && r.resGen == resGen && r.taskGen == taskGen &&
			r.consGen == consGen && r.pred == pred
	}
	// Lock-free fast path: a matching-generation result serves the round
	// with a pointer load and three compares.
	if r := e.cur.Load(); hit(r) {
		s.cache.hits.Add(1)
		return r
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Double-check: a concurrent miss on the same generations may have
	// recomputed while we waited for the singleflight lock.
	if r := e.cur.Load(); hit(r) {
		s.cache.hits.Add(1)
		return r
	}
	prev := e.cur.Load()
	r := &rankResult{resGen: resGen, taskGen: taskGen, consGen: consGen, pred: pred,
		ranked: s.computeRankedAt(snap, task, params)}
	r.names = make([]string, len(r.ranked))
	for i, h := range r.ranked {
		r.names[i] = h.Name
	}
	// A concurrent round holding a newer snapshot may already have stored
	// a fresher ranking; never replace newer with older.
	if prev == nil || (prev.resGen <= resGen && prev.taskGen <= taskGen && prev.consGen <= consGen) {
		if prev != nil {
			s.cache.invalidations.Add(1)
		}
		e.cur.Store(r)
	}
	s.cache.misses.Add(1)
	return r
}

// computeRankedAt evaluates Predict(task, R) over the snapshot's up
// hosts — the uncached body of Fig. 3 steps 1-2+4.
func (s *LocalSite) computeRankedAt(snap *repository.Snapshot, task *afg.Task, params repository.TaskParams) []RankedHost {
	views := snap.UpHosts()
	out := make([]RankedHost, 0, len(views))
	for _, h := range views {
		// Eligibility: task installed on the host (task-constraints
		// database) and editor machine-type / host-name preferences.
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
		if d, ok := snap.MeasuredTime(task.Name, h.HostName); ok {
			measured = &d
		}
		d, err := s.Oracle.P.Predict(params, h, 1, measured)
		if err != nil {
			continue // saturated or down hosts drop out
		}
		out = append(out, RankedHost{Name: h.HostName, Single: d})
	}
	slices.SortStableFunc(out, func(a, b RankedHost) int {
		if a.Single != b.Single {
			return cmp.Compare(a.Single, b.Single)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// RequiredNodesAt returns how many machines the task needs on a site,
// as of snap: Props.Nodes when the task runs in parallel mode AND its
// library implementation is parallelizable, else 1. This is the single
// authority on the node-count rule — the schedulers, baselines, and the
// rescheduler all consult it.
func RequiredNodesAt(snap *repository.Snapshot, task *afg.Task) int {
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return 1
	}
	if task.Props.Mode == afg.Parallel && params.Parallelizable && task.Props.Nodes > 1 {
		return task.Props.Nodes
	}
	return 1
}

// PredictSet predicts the execution time of task on the given host set
// (nodes = len(hosts)); for multi-host sets the prediction is taken on
// the slowest member, since the parallel task finishes when its slowest
// share does.
func (s *LocalSite) PredictSet(task *afg.Task, hosts []string) (time.Duration, error) {
	return s.PredictSetAt(s.Repo.Snapshot(), task, hosts)
}

// PredictSetAt is PredictSet against a caller-held snapshot. The worst
// member is tracked inside the ranking loop, so the parallel-time
// prediction is computed once from it rather than re-fetching and
// re-ranking the worst host afterwards.
func (s *LocalSite) PredictSetAt(snap *repository.Snapshot, task *afg.Task, hosts []string) (time.Duration, error) {
	if len(hosts) == 0 {
		return 0, fmt.Errorf("core: PredictSet with no hosts")
	}
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return 0, err
	}
	// By value: a pointer kept past its iteration escapes to the heap.
	var worst, worstTime time.Duration
	var worstHost repository.HostView
	var worstMeasured bool
	for _, name := range hosts {
		h, ok := snap.View(name)
		if !ok {
			return 0, fmt.Errorf("%w: %s", repository.ErrUnknownHost, name)
		}
		m, ok := snap.MeasuredTime(task.Name, name)
		var measured *time.Duration
		if ok {
			measured = &m
		}
		d, err := s.Oracle.P.Predict(params, h, 1, measured)
		if err != nil {
			return 0, err
		}
		if d >= worst {
			worst, worstHost, worstTime, worstMeasured = d, h, m, ok
		}
	}
	if len(hosts) == 1 {
		return worst, nil
	}
	var measured *time.Duration
	if worstMeasured {
		measured = &worstTime
	}
	return s.Oracle.P.Predict(params, worstHost, len(hosts), measured)
}

// ChooseAt runs the per-task body of Fig. 3 against one snapshot: rank
// the eligible hosts, cut the ranking at the node count, predict the
// set. A non-nil skip drops hosts from the ranking before the cut — the
// rescheduling request's exclusions. With skip nil the chosen hosts are
// a cap-clamped prefix of the cached ranking's name list, so a cache hit
// allocates nothing; either way the slice may be shared: do not modify.
func (s *LocalSite) ChooseAt(snap *repository.Snapshot, task *afg.Task, skip func(host string) bool) HostChoice {
	if _, err := snap.TaskParams(task.Name); err != nil {
		return HostChoice{Site: s.SiteName(), Err: err.Error()}
	}
	r := s.rankAt(snap, task)
	usable, best := r.names, 0 // best indexes the first usable host in r.ranked
	if skip != nil {
		usable = make([]string, 0, len(r.names))
		for i, h := range r.names {
			if skip(h) {
				continue
			}
			if len(usable) == 0 {
				best = i
			}
			usable = append(usable, h)
		}
	}
	if len(usable) == 0 {
		return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf("no eligible host for %s", task.Name)}
	}
	nodes := RequiredNodesAt(snap, task)
	if nodes <= 1 {
		return HostChoice{Site: s.SiteName(), Hosts: usable[:1:1], Predicted: r.ranked[best].Single}
	}
	if nodes > len(usable) {
		return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf(
			"parallel task %s wants %d nodes, site has %d eligible", task.Name, nodes, len(usable))}
	}
	names := usable[:nodes:nodes]
	d, err := s.PredictSetAt(snap, task, names)
	if err != nil {
		return HostChoice{Site: s.SiteName(), Err: err.Error()}
	}
	return HostChoice{Site: s.SiteName(), Hosts: names, Predicted: d}
}
