package core

import (
	"math/rand"

	"vdce/internal/afg"
	"vdce/internal/netmodel"
	"vdce/internal/repository"
)

// The comparators experiment E2 runs beside the VDCE scheduler: random,
// round-robin, min-min and ScheduleQueueAware. Each is the shared plan
// with its own task order and host choice, over every given site (there
// is no multicast), and predicts with the same oracle, so simulated
// comparisons isolate the placement policy.

// begin starts the plan named app over every given site: one pass over
// g validates it and, under a non-nil cost, computes its levels, and
// each site's snapshot is frozen, so a whole run reads a coherent view.
func begin(g *afg.Graph, sites []*LocalSite, net *netmodel.Network, cost afg.CostFunc, app string) (plan, []*repository.Snapshot, error) {
	if len(sites) == 0 {
		return plan{}, nil, ErrNoSites
	}
	r := new(afg.Round)
	shape, err := g.Prepare(cost, r)
	if err != nil {
		return plan{}, nil, err
	}
	snaps := make([]*repository.Snapshot, len(sites))
	for i, s := range sites {
		snaps[i] = s.Snapshot()
	}
	return newPlan(g, shape, net, r, app), snaps, nil
}

// siteOption is one site's ranked eligible hosts for a task and how many
// of them the task needs there.
type siteOption struct {
	site  *LocalSite
	snap  *repository.Snapshot
	hosts []string // best first; the rank cache's own: read-only
	nodes int
}

// eligible lists the sites that can run task.
func eligible(sites []*LocalSite, snaps []*repository.Snapshot, task *afg.Task) []siteOption {
	var out []siteOption
	for i, s := range sites {
		hosts := s.sortedAt(snaps[i], task).ranked
		nodes := RequiredNodesAt(snaps[i], task)
		if len(hosts) < nodes || len(hosts) == 0 {
			continue
		}
		out = append(out, siteOption{site: s, snap: snaps[i], hosts: hosts, nodes: nodes})
	}
	return out
}

// offer predicts task id on hosts of o's site and offers the placement.
func (o siteOption) offer(p *plan, id afg.TaskID, hosts []string) error {
	pred, err := o.site.PredictSetAt(o.snap, p.g.Tasks[id], hosts)
	if err != nil {
		return err
	}
	return p.offer(id, o.site.SiteName(), hosts, pred)
}

// ScheduleRandom places every task on a uniformly random eligible site
// and random eligible host set within it.
func ScheduleRandom(g *afg.Graph, sites []*LocalSite, net *netmodel.Network, seed int64) (*AllocationTable, error) {
	p, snaps, err := begin(g, sites, net, nil, g.Name+" [random]")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	p.rule = lowestID
	return p.run(func(id afg.TaskID) error {
		opts := eligible(sites, snaps, g.Tasks[id])
		if len(opts) == 0 {
			return nil
		}
		o := opts[rng.Intn(len(opts))]
		hosts := make([]string, o.nodes)
		for i, pi := range rng.Perm(len(o.hosts))[:o.nodes] {
			hosts[i] = o.hosts[pi]
		}
		return o.offer(&p, id, hosts)
	})
}

// ScheduleRoundRobin deals tasks across sites in rotation, and across
// each site's eligible hosts in rotation, ignoring predictions entirely.
func ScheduleRoundRobin(g *afg.Graph, sites []*LocalSite, net *netmodel.Network) (*AllocationTable, error) {
	p, snaps, err := begin(g, sites, net, nil, g.Name+" [round-robin]")
	if err != nil {
		return nil, err
	}
	siteCursor := 0
	hostCursor := make(map[string]int)
	p.rule = lowestID
	return p.run(func(id afg.TaskID) error {
		opts := eligible(sites, snaps, g.Tasks[id])
		if len(opts) == 0 {
			return nil
		}
		o := opts[siteCursor%len(opts)]
		siteCursor++
		// A site has at least nodes eligible hosts, so nodes consecutive
		// ones, wrapping around its ranking, are distinct.
		name := o.site.SiteName()
		hosts := make([]string, o.nodes)
		for i := range hosts {
			hosts[i] = o.hosts[(hostCursor[name]+i)%len(o.hosts)]
		}
		hostCursor[name] += o.nodes
		return o.offer(&p, id, hosts)
	})
}

// ScheduleMinMin implements the classic min-min heuristic: repeatedly
// compute, for every ready task, its minimal estimated completion time
// (host availability + data arrival + prediction) over every site's
// Fig. 3 choice, then commit the task achieving the overall minimum.
func ScheduleMinMin(g *afg.Graph, sites []*LocalSite, net *netmodel.Network) (*AllocationTable, error) {
	p, _, err := begin(g, sites, net, nil, g.Name+" [min-min]")
	if err != nil {
		return nil, err
	}
	answers := make([]Selection, len(sites))
	for i, s := range sites {
		answers[i] = s.selectInto(g, make(Selection, len(g.Tasks)))
	}
	p.rule, p.timed = everyReady, true
	return p.run(func(id afg.TaskID) error { return p.offerChoices(answers, id) })
}
