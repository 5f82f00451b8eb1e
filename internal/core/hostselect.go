package core

import (
	"fmt"
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
// Each task's eligible hosts and model estimates are kept in a cache
// (see rankCache) that no write-back invalidates: a round blends the
// snapshot's measured times into them.
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

// sortedAt returns the task's eligible hosts as of snap in rank order;
// none for an unknown task.
func (s *LocalSite) sortedAt(snap *repository.Snapshot, task *afg.Task) *rankOrder {
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return &rankOrder{}
	}
	return s.orderAt(snap, task, params, snap.Measurements(task.Name), -1)
}

// orderAt returns the task's eligible hosts as of snap, in an order
// whose first n hosts (all of them for n < 0, none for 0) are its n best
// under m, in order. A valid kept order that still leads is a hit; a
// stale one is rebuilt, and one a measurement has reordered is re-sorted
// and published.
func (s *LocalSite) orderAt(snap *repository.Snapshot, task *afg.Task, params repository.TaskParams, m repository.Measurements, n int) *rankOrder {
	like := rankOrder{resGen: snap.ResourceGeneration(), consGen: s.Repo.Constraints.Generation(), pred: s.Oracle.P, params: params}
	valid := func(r *rankOrder) bool {
		return r != nil && r.resGen == like.resGen && r.consGen == like.consGen && r.pred == like.pred && r.params == like.params
	}
	e := s.cache.entry(keyFor(task))
	r := e.cur.Load()
	if !valid(r) {
		e.mu.Lock()
		defer e.mu.Unlock()
		// Double-check: a concurrent miss on the same inputs may have
		// rebuilt the entry while we waited for the singleflight lock.
		if r = e.cur.Load(); !valid(r) {
			s.eligibleAt(snap, task, &like)
			next := like.sorted(m)
			s.cache.misses.Add(1)
			// Never replace an entry a round with a newer snapshot stored.
			if r == nil || r.resGen <= like.resGen && r.consGen <= like.consGen {
				e.cur.Store(next)
				if r != nil {
					s.cache.invalidations.Add(1)
				}
			}
			return next
		}
	}
	if n == 0 || r.leads(m, n) {
		s.cache.hits.Add(1)
		return r
	}
	next := r.sorted(m)
	s.cache.misses.Add(1)
	if e.cur.CompareAndSwap(r, next) {
		s.cache.invalidations.Add(1)
	}
	return next
}

// eligibleAt evaluates the model over the snapshot's up hosts for the
// ones that can run task, into like in name order — the uncached body of
// Fig. 3 steps 1-2.
func (s *LocalSite) eligibleAt(snap *repository.Snapshot, task *afg.Task, like *rankOrder) {
	views := snap.UpHosts()
	like.hosts, like.names = make([]candidate, 0, len(views)), make([]string, 0, len(views))
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
		d, err := like.pred.Predict(like.params, h, 1, nil)
		if err != nil {
			continue // saturated or down hosts drop out
		}
		like.hosts = append(like.hosts, candidate{model: d, load: h.CPULoad})
		like.names = append(like.names, h.HostName)
	}
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
	m := snap.Measurements(task.Name)
	predict := func(h repository.HostView, nodes int) (time.Duration, error) {
		if t, ok := m.On(h.HostName); ok {
			return s.Oracle.P.Predict(params, h, nodes, &t)
		}
		return s.Oracle.P.Predict(params, h, nodes, nil)
	}
	var worst time.Duration
	var worstHost repository.HostView
	for _, name := range hosts {
		h, ok := snap.View(name)
		if !ok {
			return 0, fmt.Errorf("%w: %s", repository.ErrUnknownHost, name)
		}
		d, err := predict(h, 1)
		if err != nil {
			return 0, err
		}
		if d >= worst {
			worst, worstHost = d, h
		}
	}
	if len(hosts) == 1 {
		return worst, nil
	}
	return predict(worstHost, len(hosts))
}

// ChooseAt runs the per-task body of Fig. 3 against one snapshot: rank
// the eligible hosts, cut the ranking at the node count, predict the
// set. A non-nil skip drops hosts from the ranking before the cut — the
// rescheduling request's exclusions. A sequential task takes the host of
// least prediction (ties by name); a parallel one the kept order's
// prefix, re-sorted first if a measurement moved its n best. The chosen
// hosts may be a cap-clamped slice of the kept order's names, so a
// sequential choice on a valid entry allocates nothing: do not modify.
func (s *LocalSite) ChooseAt(snap *repository.Snapshot, task *afg.Task, skip func(host string) bool) HostChoice {
	params, err := snap.TaskParams(task.Name)
	if err != nil {
		return HostChoice{Site: s.SiteName(), Err: err.Error()}
	}
	m := snap.Measurements(task.Name)
	nodes := RequiredNodesAt(snap, task)
	if nodes <= 1 {
		r, best, bestTime := s.orderAt(snap, task, params, m, 0), -1, time.Duration(0)
		for i, name := range r.names { // in name order: a tie keeps the first
			d, ok := m.Seek(name)
			if d = r.single(i, d, ok); (skip == nil || !skip(name)) && (best < 0 || d < bestTime) {
				best, bestTime = i, d
			}
		}
		if best < 0 {
			return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf("no eligible host for %s", task.Name)}
		}
		return HostChoice{Site: s.SiteName(), Hosts: r.names[best : best+1 : best+1], Predicted: bestTime}
	}
	lead := nodes
	if skip != nil {
		lead = -1 // the exclusions may take any host out of the prefix
	}
	r := s.orderAt(snap, task, params, m, lead)
	usable := r.ranked
	if skip != nil {
		usable = make([]string, 0, len(r.ranked))
		for _, h := range r.ranked {
			if !skip(h) {
				usable = append(usable, h)
			}
		}
	}
	if len(usable) == 0 {
		return HostChoice{Site: s.SiteName(), Err: fmt.Sprintf("no eligible host for %s", task.Name)}
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
