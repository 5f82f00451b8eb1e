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

// roundSites lists the sites of one scheduling round (Fig. 2 step 2) in
// candidate order: the local site, then by name the K nearest remote
// sites that have a reachable SiteService. Equal totals go to the
// earlier site.
func (s *Scheduler) roundSites() ([]SiteService, error) {
	if s.K <= 0 || len(s.Remote) == 0 {
		return []SiteService{s.Local}, nil
	}
	names, err := s.Net.Nearest(s.Local.SiteName(), len(s.Remote))
	if err != nil {
		return nil, err
	}
	sites := make([]SiteService, 1, 1+min(s.K, len(s.Remote)))
	sites[0] = s.Local
	for _, name := range names {
		i := slices.IndexFunc(s.Remote, func(r SiteService) bool { return r.SiteName() == name })
		if i >= 0 && len(sites) <= s.K {
			sites = append(sites, s.Remote[i])
		}
	}
	slices.SortFunc(sites[1:], func(a, b SiteService) int { return strings.Compare(a.SiteName(), b.SiteName()) })
	return sites, nil
}

// multicast runs HostSelection on every site (Fig. 2 steps 3-5): wire
// services concurrently, in-process sites inline on the caller. The
// caller has already validated g, so in-process sites take the
// no-revalidation fast path; remote sites validate on their own side of
// the wire as always. answers[i] stays nil for a site that errored, did
// not answer for exactly g's tasks, or offered hosts under another
// site's name; errs[i] says why.
func multicast(g *afg.Graph, sites []SiteService) (answers []Selection, errs []error) {
	answers, errs = make([]Selection, len(sites)), make([]error, len(sites))
	var wg sync.WaitGroup
	// Wire calls start first, so they overlap the inline selections.
	for i, svc := range sites {
		if _, ok := svc.(*LocalSite); ok {
			continue
		}
		wg.Add(1)
		go func(i int, svc SiteService) {
			defer wg.Done()
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
				errs[i] = fmt.Errorf("site %s: %w", svc.SiteName(), err)
				return
			}
			answers[i] = sel
		}(i, svc)
	}
	for i, svc := range sites {
		if ls, ok := svc.(*LocalSite); ok {
			answers[i] = ls.hostSelectionValidated(g)
		}
	}
	wg.Wait()
	return answers, errs
}

// Schedule runs the Site Scheduler Algorithm (Fig. 2) and returns the
// resource allocation table. cost supplies each task's level-computation
// cost (the base-processor time from the task-performance database).
func (s *Scheduler) Schedule(g *afg.Graph, cost afg.CostFunc) (*AllocationTable, error) {
	if s.Local == nil {
		return nil, ErrNoSites
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Priorities are computed before the scheduling run (§3).
	levels, err := g.Levels(cost)
	if err != nil {
		return nil, err
	}

	// Steps 2-5: gather host selections from the local site and the k
	// nearest remote sites.
	sites, err := s.roundSites()
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
	p := newPlan(g, s.Net, g.Name)
	p.levels = levels
	if s.Priority == FIFOPriority {
		p.rule = lowestID
	}
	return p.run(func(id afg.TaskID) error { return p.offerChoices(answers, id) })
}
