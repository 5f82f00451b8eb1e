// Package netmodel models the wide-area network joining VDCE sites: a
// symmetric latency + bandwidth matrix used for the paper's inter-task
// transfer-time estimates ("based on the network transfer time between a
// site and the parent's site, and the size of the transfer") and for the
// k-nearest-neighbor site selection of the site scheduler algorithm.
package netmodel

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Link is one direction-independent site-to-site connection.
type Link struct {
	Latency     time.Duration
	BytesPerSec float64
}

// Network is a complete graph over named sites. Intra-site "links" model
// the LAN inside one site. SetLink, Ring and Randomize configure it;
// once configured it is safe for concurrent reads, and Nearest neither
// sorts nor allocates.
type Network struct {
	sites []string
	index map[string]int
	links [][]Link
	// near[i] lists every other site by latency from site i, then by
	// name; each configuring call recomputes it into fresh slices.
	near [][]string
}

// Defaults applied by New for unspecified links.
var (
	DefaultWANLink = Link{Latency: 20 * time.Millisecond, BytesPerSec: 1e6}   // ~T1..10base WAN of the era
	DefaultLANLink = Link{Latency: 500 * time.Microsecond, BytesPerSec: 10e6} // 10 Mbyte/s campus LAN
)

// New builds a network over the given site names with default WAN links
// between distinct sites and default LAN characteristics within a site.
func New(sites []string) (*Network, error) {
	if len(sites) == 0 {
		return nil, errors.New("netmodel: no sites")
	}
	n := &Network{
		sites: append([]string(nil), sites...),
		index: make(map[string]int, len(sites)),
	}
	for i, s := range sites {
		if s == "" {
			return nil, errors.New("netmodel: empty site name")
		}
		if _, dup := n.index[s]; dup {
			return nil, fmt.Errorf("netmodel: duplicate site %q", s)
		}
		n.index[s] = i
	}
	n.links = make([][]Link, len(sites))
	for i := range n.links {
		n.links[i] = make([]Link, len(sites))
		for j := range n.links[i] {
			if i == j {
				n.links[i][j] = DefaultLANLink
			} else {
				n.links[i][j] = DefaultWANLink
			}
		}
	}
	n.sortNear()
	return n, nil
}

// SetLink sets the symmetric link between sites a and b (a may equal b to
// set a site's internal LAN characteristics).
func (n *Network) SetLink(a, b string, l Link) error {
	ia, ok := n.index[a]
	if !ok {
		return fmt.Errorf("netmodel: unknown site %q", a)
	}
	ib, ok := n.index[b]
	if !ok {
		return fmt.Errorf("netmodel: unknown site %q", b)
	}
	if l.Latency < 0 || l.BytesPerSec <= 0 {
		return fmt.Errorf("netmodel: invalid link %+v", l)
	}
	n.links[ia][ib] = l
	n.links[ib][ia] = l
	n.sortNear()
	return nil
}

// LinkBetween returns the link between two sites.
func (n *Network) LinkBetween(a, b string) (Link, error) {
	ia, ok := n.index[a]
	if !ok {
		return Link{}, fmt.Errorf("netmodel: unknown site %q", a)
	}
	ib, ok := n.index[b]
	if !ok {
		return Link{}, fmt.Errorf("netmodel: unknown site %q", b)
	}
	return n.links[ia][ib], nil
}

// TransferTime returns the paper's transfer_time(S_a, S_b) x file-size
// estimate: latency plus size over bandwidth. Transfers within one site
// use the site's LAN link. A zero or negative size costs only latency.
func (n *Network) TransferTime(bytes int64, a, b string) (time.Duration, error) {
	l, err := n.LinkBetween(a, b)
	if err != nil {
		return 0, err
	}
	if bytes <= 0 {
		return l.Latency, nil
	}
	secs := float64(bytes) / l.BytesPerSec
	return l.Latency + time.Duration(secs*float64(time.Second)), nil
}

// Nearest returns up to k remote sites sorted by ascending latency from
// local, ties by name — the paper's "select k nearest VDCE neighbor
// sites". The local site itself is excluded. The result is a prefix of
// the network's own order, shared by every caller: read it, do not
// modify it.
func (n *Network) Nearest(local string, k int) ([]string, error) {
	il, ok := n.index[local]
	if !ok {
		return nil, fmt.Errorf("netmodel: unknown site %q", local)
	}
	k = min(max(k, 0), len(n.near[il]))
	return n.near[il][:k:k], nil
}

// sortNear recomputes every site's nearest-first order after the links
// changed.
func (n *Network) sortNear() {
	n.near = make([][]string, len(n.sites))
	for il, row := range n.links {
		near := slices.Delete(slices.Clone(n.sites), il, il+1)
		// Latency then site name is a total order: no stable sort needed.
		slices.SortFunc(near, func(a, b string) int {
			return cmp.Or(cmp.Compare(row[n.index[a]].Latency, row[n.index[b]].Latency), cmp.Compare(a, b))
		})
		n.near[il] = near
	}
}

// Ring rewires the network so sites form a latency ring: hop distance d
// costs d*hopLatency with bandwidth divided by d. Useful for locality
// experiments (E4) where "nearest" is meaningful.
func (n *Network) Ring(hopLatency time.Duration, hopBytesPerSec float64) {
	c := len(n.sites)
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			if i == j {
				continue
			}
			d := i - j
			if d < 0 {
				d = -d
			}
			if c-d < d {
				d = c - d
			}
			n.links[i][j] = Link{
				Latency:     time.Duration(d) * hopLatency,
				BytesPerSec: hopBytesPerSec / float64(d),
			}
		}
	}
	n.sortNear()
}

// Randomize assigns random WAN links (latency in [lo, hi], bandwidth in
// [bwLo, bwHi]) using the given seed, keeping intra-site LAN links.
func (n *Network) Randomize(seed int64, lo, hi time.Duration, bwLo, bwHi float64) {
	rng := rand.New(rand.NewSource(seed))
	c := len(n.sites)
	for i := 0; i < c; i++ {
		for j := i + 1; j < c; j++ {
			lat := lo + time.Duration(rng.Int63n(int64(hi-lo)+1))
			bw := bwLo + rng.Float64()*(bwHi-bwLo)
			l := Link{Latency: lat, BytesPerSec: bw}
			n.links[i][j] = l
			n.links[j][i] = l
		}
	}
	n.sortNear()
}
