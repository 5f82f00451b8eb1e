package exec

import (
	"fmt"

	"vdce/internal/afg"
	"vdce/internal/core"
)

// NewRescheduler builds the Reschedule hook from the available site
// schedulers: on a rescheduling request it re-runs host selection for
// the single task across all sites, on each site's current snapshot —
// so hosts the failure detector holds down or quarantined are skipped
// like any host not listed up — excluding the hosts the Application
// Controller reported, and returns the fastest remaining placement.
func NewRescheduler(sites []*core.LocalSite) func(*afg.Graph, afg.TaskID, []string) (*core.Placement, error) {
	return func(g *afg.Graph, id afg.TaskID, exclude []string) (*core.Placement, error) {
		task := g.Task(id)
		if task == nil {
			return nil, fmt.Errorf("exec: reschedule of unknown task %d", id)
		}
		bad := make(map[string]bool, len(exclude))
		for _, h := range exclude {
			bad[h] = true
		}
		skip := func(host string) bool { return bad[host] }
		var best *core.Placement
		for _, site := range sites {
			c := site.ChooseAt(site.Snapshot(), task, skip)
			if c.Err == "" && (best == nil || c.Predicted < best.Predicted) {
				best = &core.Placement{
					Task: task.ID, TaskName: task.Name, Site: c.Site,
					Hosts: c.Hosts, Predicted: c.Predicted,
				}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("exec: no host available to reschedule task %d (%s)", id, task.Name)
		}
		return best, nil
	}
}
