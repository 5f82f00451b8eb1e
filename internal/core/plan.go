package core

import (
	"fmt"
	"time"

	"vdce/internal/afg"
	"vdce/internal/netmodel"
)

// pickRule is a policy's answer to which ready task goes next.
type pickRule int

const (
	highestLevel pickRule = iota // ties to the lower ID (Fig. 2, §3)
	lowestID
	everyReady // weigh them all, place the best candidate (min-min)
)

// plan is the list scheduler every placement policy shares: Fig. 2's
// loop, with the policy's own decisions left to it. Each step takes the
// ready tasks the rule picks, the policy offers their candidate
// placements, and the first cheapest candidate is placed.
type plan struct {
	g               *afg.Graph
	net             *netmodel.Network
	rs              *afg.ReadySet
	inStart, inEdge []int32
	site            []string // each placed task's site
	// Each placed task's and host's estimated finish, in a timed plan.
	finish   []time.Duration
	hostFree map[string]time.Duration
	table    *AllocationTable
	// levels rank highestLevel and are recorded in the table; nil for
	// policies that ignore them.
	levels []float64
	rule   pickRule
	// timed scores a candidate by its estimated finish, max(last input
	// arrives, hosts free) + Predict; otherwise by Fig. 2's Predict +
	// summed transfer time.
	timed bool

	best      Placement // the step's cheapest candidate so far
	bestScore time.Duration
	haveBest  bool
}

// newPlan starts a plan over a validated graph; app names the table.
func newPlan(g *afg.Graph, net *netmodel.Network, app string) plan {
	inStart, inEdge := g.InEdgeIndex()
	return plan{
		g: g, net: net, rs: afg.NewReadySet(g), inStart: inStart, inEdge: inEdge,
		site:  make([]string, len(g.Tasks)),
		table: &AllocationTable{App: app, Entries: make([]Placement, 0, len(g.Tasks))},
	}
}

// run places every task and returns the validated table. offer is the
// policy's host choice: it hands each candidate placement of task id to
// p.offer, and a task offered nowhere fails the round.
func (p *plan) run(offer func(id afg.TaskID) error) (*AllocationTable, error) {
	for !p.rs.Empty() {
		tasks := p.next()
		p.haveBest = false
		for _, id := range tasks {
			if err := offer(id); err != nil {
				return nil, err
			}
		}
		if !p.haveBest {
			return nil, fmt.Errorf("%w: task %d (%s)", ErrNoEligibleSite, tasks[0], p.g.Tasks[tasks[0]].Name)
		}
		if err := p.place(); err != nil {
			return nil, err
		}
	}
	if err := p.table.Validate(p.g); err != nil {
		return nil, err
	}
	return p.table, nil
}

// next returns the ready tasks this step weighs.
func (p *plan) next() []afg.TaskID {
	ready := p.rs.Ready() // ID-sorted
	switch p.rule {
	case everyReady:
		return ready
	case lowestID:
		return ready[:1]
	}
	best := 0
	for i, id := range ready {
		if p.levels[id] > p.levels[ready[best]] {
			best = i
		}
	}
	return ready[best : best+1]
}

// inputs prices task id's dataflow inputs on site: the summed transfer
// time from its parents' sites, and, in a timed plan, when the last
// input arrives.
func (p *plan) inputs(id afg.TaskID, site string) (xfer, arrive time.Duration, err error) {
	for _, ei := range p.inEdge[p.inStart[id]:p.inStart[id+1]] {
		e := p.g.Edges[ei]
		t, err := p.net.TransferTime(p.g.EdgeSize(e), p.site[e.From], site)
		if err != nil {
			return 0, 0, err
		}
		xfer += t
		if p.timed {
			arrive = max(arrive, p.finish[e.From]+t)
		}
	}
	return xfer, arrive, nil
}

// offer weighs placing task id on hosts at site, predicted to run pred.
// An input the network model cannot price fails the round.
func (p *plan) offer(id afg.TaskID, site string, hosts []string, pred time.Duration) error {
	xfer, arrive, err := p.inputs(id, site)
	if err != nil {
		return err
	}
	score := pred + xfer
	if p.timed {
		start := arrive
		for _, h := range hosts {
			start = max(start, p.hostFree[h])
		}
		score = start + pred
	}
	if !p.haveBest || score < p.bestScore {
		p.best = Placement{Task: id, Site: site, Hosts: hosts, Predicted: pred, TransferIn: xfer}
		p.bestScore, p.haveBest = score, true
	}
	return nil
}

// offerChoices offers task id on every site whose host selection
// produced a real choice for it.
func (p *plan) offerChoices(answers []Selection, id afg.TaskID) error {
	for _, sel := range answers {
		if sel == nil || sel[id].Err != "" || len(sel[id].Hosts) == 0 {
			continue
		}
		if err := p.offer(id, sel[id].Site, sel[id].Hosts, sel[id].Predicted); err != nil {
			return err
		}
	}
	return nil
}

// place commits the step's best candidate and completes its task.
func (p *plan) place() error {
	p.table.Entries = append(p.table.Entries, p.best)
	c := &p.table.Entries[len(p.table.Entries)-1]
	c.TaskName = p.g.Tasks[c.Task].Name
	if p.levels != nil {
		c.Level = p.levels[c.Task]
	}
	p.site[c.Task] = c.Site
	if p.timed {
		if p.finish == nil {
			p.finish = make([]time.Duration, len(p.g.Tasks))
			p.hostFree = make(map[string]time.Duration)
		}
		p.finish[c.Task] = p.bestScore
		for _, h := range c.Hosts {
			p.hostFree[h] = p.bestScore
		}
	}
	return p.rs.Complete(c.Task)
}
