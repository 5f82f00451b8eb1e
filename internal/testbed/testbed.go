package testbed

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vdce/internal/netmodel"
	"vdce/internal/repository"
)

// Site is one VDCE site: a repository plus the simulated hosts behind it,
// organized into groups each led by a Group Manager.
type Site struct {
	Name  string
	Repo  *repository.Repository
	Hosts []*Host
}

// GroupNames returns the distinct group names of the site in order.
func (s *Site) GroupNames() []string {
	var out []string
	seen := make(map[string]bool)
	for _, h := range s.Hosts {
		if !seen[h.Group] {
			seen[h.Group] = true
			out = append(out, h.Group)
		}
	}
	return out
}

// HostNames returns the site's host names in order — the shape chaos
// scenarios and detector registrations consume.
func (s *Site) HostNames() []string {
	out := make([]string, len(s.Hosts))
	for i, h := range s.Hosts {
		out[i] = h.Name
	}
	return out
}

// GroupHosts returns the hosts of one group in order.
func (s *Site) GroupHosts(group string) []*Host {
	var out []*Host
	for _, h := range s.Hosts {
		if h.Group == group {
			out = append(out, h)
		}
	}
	return out
}

// Testbed is the fabricated wide-area system: sites, their hosts, and the
// network joining them.
type Testbed struct {
	Sites []*Site
	Net   *netmodel.Network

	byName map[string]*Host
}

// Config parameterizes Build. Zero fields take the listed defaults.
type Config struct {
	Sites         int     // default 2
	GroupsPerSite int     // default 1
	HostsPerGroup int     // default 4
	Seed          int64   // default 1
	SpeedMin      float64 // default 0.5
	SpeedMax      float64 // default 4.0
	MemMin        int64   // default 64 MiB
	MemMax        int64   // default 512 MiB
	BaseLoadMax   float64 // default 0.6: ceiling of the background-load walk
	LoadSigma     float64 // default 0.05: walk step stddev
	// ArchOS lists the machine types to draw from; default mixes the
	// paper-era platforms.
	ArchOS [][2]string
}

func (c *Config) fillDefaults() {
	if c.Sites <= 0 {
		c.Sites = 2
	}
	if c.GroupsPerSite <= 0 {
		c.GroupsPerSite = 1
	}
	if c.HostsPerGroup <= 0 {
		c.HostsPerGroup = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SpeedMin <= 0 {
		c.SpeedMin = 0.5
	}
	if c.SpeedMax < c.SpeedMin {
		c.SpeedMax = 4.0
	}
	if c.MemMin <= 0 {
		c.MemMin = 64 << 20
	}
	if c.MemMax < c.MemMin {
		c.MemMax = 512 << 20
	}
	if c.BaseLoadMax <= 0 {
		c.BaseLoadMax = 0.6
	}
	if c.LoadSigma <= 0 {
		c.LoadSigma = 0.05
	}
	if len(c.ArchOS) == 0 {
		c.ArchOS = [][2]string{
			{"SUN", "Solaris"},
			{"SUN", "SunOS"},
			{"SGI", "IRIX"},
			{"DEC", "OSF1"},
			{"Intel", "Linux"},
		}
	}
}

// Build fabricates a testbed from cfg, deterministically from cfg.Seed.
// Every site's resource-performance database is pre-populated with that
// site's hosts.
func Build(cfg Config) (*Testbed, error) {
	cfg.fillDefaults()
	if cfg.BaseLoadMax >= 1 {
		return nil, errors.New("testbed: BaseLoadMax must be < 1")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	siteNames := make([]string, cfg.Sites)
	for i := range siteNames {
		siteNames[i] = fmt.Sprintf("site%d", i)
	}
	net, err := netmodel.New(siteNames)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{Net: net, byName: make(map[string]*Host)}
	for si, sname := range siteNames {
		site := &Site{Name: sname, Repo: repository.New(sname)}
		for gi := 0; gi < cfg.GroupsPerSite; gi++ {
			gname := fmt.Sprintf("%s-g%d", sname, gi)
			for hi := 0; hi < cfg.HostsPerGroup; hi++ {
				archos := cfg.ArchOS[rng.Intn(len(cfg.ArchOS))]
				mem := cfg.MemMin
				if cfg.MemMax > cfg.MemMin {
					mem += rng.Int63n(cfg.MemMax - cfg.MemMin)
				}
				h := &Host{
					Name:     fmt.Sprintf("h%d-%d-%d.%s.vdce.edu", si, gi, hi, sname),
					IP:       fmt.Sprintf("10.%d.%d.%d", si, gi, hi+1),
					Arch:     archos[0],
					OS:       archos[1],
					Site:     sname,
					Group:    gname,
					Speed:    cfg.SpeedMin + rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin),
					TotalMem: mem,
					RunSlot:  make(chan struct{}, 1),
					sigma:    cfg.LoadSigma,
					maxLoad:  cfg.BaseLoadMax,
					rng:      rand.New(rand.NewSource(cfg.Seed + int64(si*10000+gi*100+hi))),
				}
				// Start the walk somewhere inside its range.
				h.load = h.rng.Float64() * cfg.BaseLoadMax / 2
				site.Hosts = append(site.Hosts, h)
				tb.byName[h.Name] = h
				if err := site.Repo.Resources.AddHost(h.Info()); err != nil {
					return nil, err
				}
			}
		}
		tb.Sites = append(tb.Sites, site)
	}
	return tb, nil
}

// Host returns the named host model.
func (tb *Testbed) Host(name string) (*Host, error) {
	h, ok := tb.byName[name]
	if !ok {
		return nil, fmt.Errorf("testbed: unknown host %q", name)
	}
	return h, nil
}

// Site returns the named site.
func (tb *Testbed) Site(name string) (*Site, error) {
	for _, s := range tb.Sites {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("testbed: unknown site %q", name)
}

// AllHosts returns every host across all sites in site order.
func (tb *Testbed) AllHosts() []*Host {
	var out []*Host
	for _, s := range tb.Sites {
		out = append(out, s.Hosts...)
	}
	return out
}

// HostNames returns every host name across all sites in site order.
func (tb *Testbed) HostNames() []string {
	var out []string
	for _, s := range tb.Sites {
		out = append(out, s.HostNames()...)
	}
	return out
}

// RefreshRepos re-samples every reachable host once at the given time and
// writes the measurements into the owning site's resource DB — a
// synchronous stand-in for one full monitor round *plus* its detection
// outcome (unreachable hosts are marked down immediately), used by tests
// and schedulers that want fresh load data without running the daemons.
func (tb *Testbed) RefreshRepos(now time.Time) error {
	for _, s := range tb.Sites {
		// Batch the whole site's round into one epoch publish: schedulers
		// see either the pre-round or post-round catalog, never a torn
		// mixture, and the ranked-host caches invalidate once per round.
		updates := make([]repository.RoundUpdate, 0, len(s.Hosts))
		for _, h := range s.Hosts {
			if !h.Reachable() {
				updates = append(updates, repository.RoundUpdate{Host: h.Name, Status: repository.HostDown})
				continue
			}
			sample := h.Sample(now)
			updates = append(updates, repository.RoundUpdate{
				Host: h.Name, Status: repository.HostUp, Sample: &sample,
			})
		}
		if _, err := s.Repo.Resources.ApplyRound(updates); err != nil {
			return err
		}
	}
	return nil
}
