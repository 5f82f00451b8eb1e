package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"vdce/internal/afg"
	"vdce/internal/netmodel"
)

// PriorityMode selects the list-scheduling priority. LevelPriority is the
// paper's heuristic; FIFOPriority is the ablation baseline that scans the
// ready set in task-ID order.
type PriorityMode int

const (
	// LevelPriority orders ready tasks by descending level (Fig. 2 + §3).
	LevelPriority PriorityMode = iota
	// FIFOPriority orders ready tasks by ascending task ID.
	FIFOPriority
)

// Scheduler is one site's Application Scheduler (Fig. 2). Local is the
// site it runs on; Remote lists the reachable peer sites (their
// schedulers), of which the K nearest by network latency participate in
// each scheduling round; Net supplies transfer-time estimates.
type Scheduler struct {
	Local  SiteService
	Remote []SiteService
	Net    *netmodel.Network
	// K is the paper's "k nearest VDCE neighbor sites". K <= 0 schedules
	// on the local site alone.
	K int
	// Priority selects the list-scheduling order; LevelPriority unless
	// overridden for ablations.
	Priority PriorityMode
}

// NewScheduler returns a level-priority scheduler over the given sites.
func NewScheduler(local SiteService, remote []SiteService, net *netmodel.Network, k int) *Scheduler {
	return &Scheduler{Local: local, Remote: remote, Net: net, K: k}
}

// roundSites appends to sites, empty, the sites of one scheduling round
// (Fig. 2 step 2) in candidate order: the local site, then by name the K
// nearest remote sites that have a reachable SiteService. Equal totals
// go to the earlier site.
func (s *Scheduler) roundSites(sites []SiteService) ([]SiteService, error) {
	sites = append(sites, s.Local)
	if s.K <= 0 || len(s.Remote) == 0 {
		return sites, nil
	}
	names, err := s.Net.Nearest(s.Local.SiteName(), len(s.Remote))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		i := slices.IndexFunc(s.Remote, func(r SiteService) bool { return r.SiteName() == name })
		if i >= 0 && len(sites) <= s.K {
			sites = append(sites, s.Remote[i])
		}
	}
	slices.SortFunc(sites[1:], func(a, b SiteService) int { return strings.Compare(a.SiteName(), b.SiteName()) })
	return sites, nil
}

// multicast runs HostSelection on every site on the caller (Fig. 2
// steps 3-5). The caller has already validated g, so an in-process site
// takes the no-revalidation fast path and writes its answer into its
// own window of one block. Any other service's answer is checked:
// answers[i] stays nil for a site that errored, did not answer for
// exactly g's tasks, or offered hosts under another site's name;
// errs[i] says why. errs is nil while every site answers.
func multicast(g *afg.Graph, sites []SiteService) (answers []Selection, errs []error) {
	n := len(g.Tasks)
	answers, block := make([]Selection, len(sites)), make(Selection, len(sites)*n)
	for i, svc := range sites {
		if ls, ok := svc.(*LocalSite); ok {
			answers[i] = ls.selectInto(g, block[i*n:(i+1)*n:(i+1)*n])
			continue
		}
		sel, err := svc.HostSelection(g)
		if err == nil && len(sel) != len(g.Tasks) {
			err = fmt.Errorf("%d choices for %d tasks", len(sel), len(g.Tasks))
		}
		// The round records and prices a placement on the site its
		// choice names, so a peer answers for itself only.
		for id := 0; err == nil && id < len(sel); id++ {
			if c := sel[id]; len(c.Hosts) > 0 && c.Site != svc.SiteName() {
				err = fmt.Errorf("task %d offered on site %q", id, c.Site)
			}
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, len(sites))
			}
			errs[i] = fmt.Errorf("site %s: %w", svc.SiteName(), err)
			continue
		}
		answers[i] = sel
	}
	return answers, errs
}

// rounds holds the per-task state of finished scheduling rounds for the
// next: the levels and the ready set.
var rounds = sync.Pool{New: func() any { return new(afg.Round) }}

// Schedule runs the Site Scheduler Algorithm (Fig. 2) and returns the
// resource allocation table. cost supplies each task's level-computation
// cost (the base-processor time from the task-performance database).
// One topological pass validates g, computes the levels and finds the
// entry nodes the placement loop starts from.
func (s *Scheduler) Schedule(g *afg.Graph, cost afg.CostFunc) (*AllocationTable, error) {
	if s.Local == nil {
		return nil, ErrNoSites
	}
	// Priorities are computed before the scheduling run (§3), in a
	// round's state that rounds pass on to each other.
	r := rounds.Get().(*afg.Round)
	defer rounds.Put(r)
	shape, err := g.Prepare(cost, r)
	if err != nil {
		return nil, err
	}

	// Steps 2-5: gather host selections from the local site and the k
	// nearest remote sites, up to seven of them listed on the stack.
	var buf [8]SiteService
	sites, err := s.roundSites(buf[:0])
	if err != nil {
		return nil, err
	}
	answers, siteErrs := multicast(g, sites)
	if !slices.ContainsFunc(answers, func(sel Selection) bool { return sel != nil }) {
		return nil, fmt.Errorf("core: every site failed host selection: %w", errors.Join(siteErrs...))
	}

	// Steps 6-7: walk the ready set in priority order. A task's candidates
	// are the sites whose host selection produced a real choice for it,
	// each at Time_total(task, Sj) = Predict(task, Rj) + the transfer
	// times from its parents' sites; the first minimal total wins.
	p := newPlan(g, shape, s.Net, r, g.Name)
	if s.Priority == FIFOPriority {
		p.rule = lowestID
	}
	return p.run(func(id afg.TaskID) error { return p.offerChoices(answers, id) })
}
