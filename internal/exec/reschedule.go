package exec

import (
	"fmt"

	"vdce/internal/afg"
	"vdce/internal/breaker"
	"vdce/internal/core"
)

// ReschedulerOption customizes NewRescheduler.
type ReschedulerOption func(*reschedulerOpts)

type reschedulerOpts struct {
	breakers *breaker.Set
}

// WithBreakers makes the rescheduler consult the per-host circuit
// breakers: hosts with open breakers are excluded from replacement
// placements exactly like the caller's own exclusion list. The breaker
// filter is advisory — if honoring it would leave no placement at all,
// the rescheduler retries without it rather than failing the task (a
// suspect host beats no host).
func WithBreakers(b *breaker.Set) ReschedulerOption {
	return func(o *reschedulerOpts) { o.breakers = b }
}

// NewRescheduler builds the Reschedule hook from the available site
// schedulers: on a rescheduling request it re-runs host selection for
// the single task across all sites, excluding the hosts the Application
// Controller reported (plus any open-breaker hosts), and returns the
// fastest remaining placement.
func NewRescheduler(sites []*core.LocalSite, opts ...ReschedulerOption) func(*afg.Graph, afg.TaskID, []string) (*core.Placement, error) {
	var o reschedulerOpts
	for _, opt := range opts {
		opt(&o)
	}
	return func(g *afg.Graph, id afg.TaskID, exclude []string) (*core.Placement, error) {
		task := g.Task(id)
		if task == nil {
			return nil, fmt.Errorf("exec: reschedule of unknown task %d", id)
		}
		bad := make(map[string]bool, len(exclude))
		for _, h := range exclude {
			bad[h] = true
		}
		if best := rescheduleOnce(sites, task, bad, o.breakers); best != nil {
			return best, nil
		}
		if o.breakers != nil {
			// Advisory fallback: every candidate was quarantined. Place on
			// a breaker-excluded host anyway rather than failing the task.
			if best := rescheduleOnce(sites, task, bad, nil); best != nil {
				return best, nil
			}
		}
		return nil, fmt.Errorf("exec: no host available to reschedule task %d (%s)", id, task.Name)
	}
}

// rescheduleOnce asks every site's Fig. 3 for task, skipping hosts in
// bad and (when breakers is non-nil) hosts whose breaker is open, and
// keeps the first minimal prediction. It returns nil when no site can
// place the task.
func rescheduleOnce(sites []*core.LocalSite, task *afg.Task, bad map[string]bool, breakers *breaker.Set) *core.Placement {
	skip := func(host string) bool {
		return bad[host] || (breakers != nil && !breakers.Allow(host))
	}
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
	return best
}
