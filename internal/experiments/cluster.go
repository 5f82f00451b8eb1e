package experiments

import (
	"time"

	"vdce/internal/core"
	"vdce/internal/netmodel"
	"vdce/internal/testbed"
	"vdce/internal/workload"
)

// cluster is the shared experiment fixture: a fabricated multi-site
// testbed with schedulers per site.
type cluster struct {
	tb    *testbed.Testbed
	sites []*core.LocalSite
	net   *netmodel.Network
}

// newCluster fabricates sites x hostsPerSite hosts and refreshes every
// repository once so load data is populated.
func newCluster(sites, hostsPerSite int, seed int64) (*cluster, error) {
	tb, err := testbed.Build(testbed.Config{
		Sites: sites, HostsPerGroup: hostsPerSite, Seed: seed,
		BaseLoadMax: 0.5, LoadSigma: 0.05,
	})
	if err != nil {
		return nil, err
	}
	c := &cluster{tb: tb, net: tb.Net}
	for _, s := range tb.Sites {
		c.sites = append(c.sites, core.NewLocalSite(s.Repo))
	}
	if err := tb.RefreshRepos(time.Unix(0, 0)); err != nil {
		return nil, err
	}
	return c, nil
}

// install registers a synthetic workload at every site.
func (c *cluster) install(w *workload.Graph) error {
	for _, s := range c.tb.Sites {
		names := make([]string, len(s.Hosts))
		for i, h := range s.Hosts {
			names[i] = h.Name
		}
		if err := w.Install(s.Repo, names); err != nil {
			return err
		}
	}
	return nil
}

// Round is what a Policy schedules on: the sites (Sites[0] submits),
// the network between them, how many nearest peers Fig. 2 multicasts to,
// and the seed the random policy draws from.
type Round struct {
	Sites []*core.LocalSite
	Net   *netmodel.Network
	K     int
	Seed  int64
}

// round is the cluster's Round with Fig. 2 multicasting to k peers.
func (c *cluster) round(k int, seed int64) Round {
	return Round{Sites: c.sites, Net: c.net, K: k, Seed: seed}
}

// Policy is one placement policy: an E2 column.
type Policy struct {
	Name     string
	Schedule func(Round, *workload.Graph) (*core.AllocationTable, error)
}

// fig2 runs the VDCE scheduler from Sites[0] with its K nearest peers.
func fig2(r Round, w *workload.Graph, prio core.PriorityMode) (*core.AllocationTable, error) {
	remotes := make([]core.SiteService, len(r.Sites)-1)
	for i, s := range r.Sites[1:] {
		remotes[i] = s
	}
	sched := core.NewScheduler(r.Sites[0], remotes, r.Net, r.K)
	sched.Priority = prio
	return sched.Schedule(w.G, w.CostFunc())
}

// Policies is the one policy table, in E2's column order: the published
// scheduler, its FIFO-priority ablation, its local-only (k = 0) round,
// the three baselines, and the queue-aware extension.
var Policies = []Policy{
	{"vdce", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return fig2(r, w, core.LevelPriority)
	}},
	{"fifo", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return fig2(r, w, core.FIFOPriority)
	}},
	{"local", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		r.K = 0
		return fig2(r, w, core.LevelPriority)
	}},
	{"random", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return core.ScheduleRandom(w.G, r.Sites, r.Net, r.Seed)
	}},
	{"rrobin", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return core.ScheduleRoundRobin(w.G, r.Sites, r.Net)
	}},
	{"minmin", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return core.ScheduleMinMin(w.G, r.Sites, r.Net)
	}},
	{"vdce+q", func(r Round, w *workload.Graph) (*core.AllocationTable, error) {
		return core.ScheduleQueueAware(w.G, r.Sites, r.Net, w.CostFunc())
	}},
}
