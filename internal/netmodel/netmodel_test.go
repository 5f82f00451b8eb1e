package netmodel

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustNew(t *testing.T, sites ...string) *Network {
	t.Helper()
	n, err := New(sites)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty site list accepted")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Fatal("empty site name accepted")
	}
	if _, err := New([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate site accepted")
	}
}

func TestDefaults(t *testing.T) {
	n := mustNew(t, "a", "b")
	lan, err := n.LinkBetween("a", "a")
	if err != nil {
		t.Fatal(err)
	}
	if lan != DefaultLANLink {
		t.Fatalf("intra-site link = %+v", lan)
	}
	wan, err := n.LinkBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if wan != DefaultWANLink {
		t.Fatalf("inter-site link = %+v", wan)
	}
	if _, err := n.LinkBetween("a", "zz"); err == nil {
		t.Fatal("link to an unknown site")
	}
}

func TestSetLinkSymmetric(t *testing.T) {
	n := mustNew(t, "a", "b")
	l := Link{Latency: 5 * time.Millisecond, BytesPerSec: 2e6}
	if err := n.SetLink("a", "b", l); err != nil {
		t.Fatal(err)
	}
	ab, _ := n.LinkBetween("a", "b")
	ba, _ := n.LinkBetween("b", "a")
	if ab != l || ba != l {
		t.Fatal("SetLink not symmetric")
	}
	if err := n.SetLink("a", "zz", l); err == nil {
		t.Fatal("unknown site accepted")
	}
	if err := n.SetLink("zz", "a", l); err == nil {
		t.Fatal("unknown site accepted")
	}
	if err := n.SetLink("a", "b", Link{Latency: -1, BytesPerSec: 1}); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := n.SetLink("a", "b", Link{Latency: 1, BytesPerSec: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestTransferTime(t *testing.T) {
	n := mustNew(t, "a", "b")
	if err := n.SetLink("a", "b", Link{Latency: 10 * time.Millisecond, BytesPerSec: 1e6}); err != nil {
		t.Fatal(err)
	}
	d, err := n.TransferTime(2e6, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if d != 10*time.Millisecond+2*time.Second {
		t.Fatalf("TransferTime = %v", d)
	}
	// Zero size costs only latency.
	d, err = n.TransferTime(0, "a", "b")
	if err != nil || d != 10*time.Millisecond {
		t.Fatalf("zero-size transfer = %v, %v", d, err)
	}
	if _, err := n.TransferTime(1, "a", "zz"); err == nil {
		t.Fatal("unknown site accepted")
	}
	// Intra-site beats inter-site for same payload.
	intra, _ := n.TransferTime(1e6, "a", "a")
	inter, _ := n.TransferTime(1e6, "a", "b")
	if intra >= inter {
		t.Fatalf("intra-site (%v) should beat inter-site (%v)", intra, inter)
	}
}

func TestNearest(t *testing.T) {
	n := mustNew(t, "s0", "s1", "s2", "s3")
	// Latencies from s0: s1=5ms, s2=1ms, s3=10ms.
	_ = n.SetLink("s0", "s1", Link{Latency: 5 * time.Millisecond, BytesPerSec: 1e6})
	_ = n.SetLink("s0", "s2", Link{Latency: 1 * time.Millisecond, BytesPerSec: 1e6})
	_ = n.SetLink("s0", "s3", Link{Latency: 10 * time.Millisecond, BytesPerSec: 1e6})
	got, err := n.Nearest("s0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "s2" || got[1] != "s1" {
		t.Fatalf("Nearest = %v", got)
	}
	// k larger than site count clips; k<=0 empty; local excluded.
	all, _ := n.Nearest("s0", 99)
	if len(all) != 3 {
		t.Fatalf("Nearest(99) = %v", all)
	}
	for _, s := range all {
		if s == "s0" {
			t.Fatal("local site in Nearest result")
		}
	}
	if none, _ := n.Nearest("s0", 0); len(none) != 0 {
		t.Fatalf("Nearest(0) = %v", none)
	}
	if _, err := n.Nearest("zz", 1); err == nil {
		t.Fatal("unknown site accepted")
	}
	// Equal latencies order by site name, whatever the site order.
	tie := mustNew(t, "s0", "s3", "s1", "s2")
	for _, s := range []string{"s3", "s1", "s2"} {
		_ = tie.SetLink("s0", s, Link{Latency: 5 * time.Millisecond, BytesPerSec: 1e6})
	}
	if got, _ := tie.Nearest("s0", 3); len(got) != 3 || got[0] != "s1" || got[1] != "s2" || got[2] != "s3" {
		t.Fatalf("tied Nearest = %v, want [s1 s2 s3]", got)
	}
}

// nearestReference orders every other site by latency from local, then
// by name, from the links alone.
func nearestReference(t *testing.T, n *Network, sites []string, local string) []string {
	t.Helper()
	var out []string
	for _, s := range sites {
		if s != local {
			out = append(out, s)
		}
	}
	lat := func(s string) time.Duration {
		l, err := n.LinkBetween(local, s)
		if err != nil {
			t.Fatal(err)
		}
		return l.Latency
	}
	slices.SortFunc(out, func(a, b string) int { return cmp.Or(cmp.Compare(lat(a), lat(b)), cmp.Compare(a, b)) })
	return out
}

// TestNearestFollowsTheLinks: the order a Network keeps for Nearest is
// the one its links give after every call that changes them — SetLink,
// Ring and Randomize — with ties by name, and concurrent readers share
// it without a race.
func TestNearestFollowsTheLinks(t *testing.T) {
	sites := []string{"s4", "s0", "s5", "s2", "s1", "s3"} // not in name order
	n := mustNew(t, sites...)
	check := func(after string) {
		t.Helper()
		for _, local := range sites {
			want := nearestReference(t, n, sites, local)
			got, err := n.Nearest(local, len(sites))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: Nearest(%s) = %v, want %v", after, local, got, want)
			}
			if k3, _ := n.Nearest(local, 3); !reflect.DeepEqual(k3, want[:3]) {
				t.Fatalf("after %s: Nearest(%s, 3) = %v, want %v", after, local, k3, want[:3])
			}
		}
	}
	check("New") // every WAN link ties: name order
	for _, l := range []struct {
		a, b string
		lat  time.Duration
	}{{"s0", "s3", time.Millisecond}, {"s3", "s5", 2 * time.Millisecond}, {"s5", "s0", time.Millisecond}} {
		if err := n.SetLink(l.a, l.b, Link{Latency: l.lat, BytesPerSec: 1e6}); err != nil {
			t.Fatal(err)
		}
		check("SetLink " + l.a + "-" + l.b)
	}
	n.Ring(2*time.Millisecond, 8e6) // two neighbors at each hop distance tie
	check("Ring")
	n.Randomize(5, time.Millisecond, 40*time.Millisecond, 1e5, 1e7)
	check("Randomize")
	n.Randomize(6, 3*time.Millisecond, 3*time.Millisecond, 1e5, 1e7) // every WAN link ties
	check("Randomize to one latency")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				local := sites[i%len(sites)]
				if got, err := n.Nearest(local, 1+i%len(sites)); err != nil || len(got) == 0 {
					t.Errorf("Nearest(%s) = %v, %v", local, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	check("concurrent reads")
}

func TestRing(t *testing.T) {
	n := mustNew(t, "s0", "s1", "s2", "s3", "s4", "s5")
	n.Ring(2*time.Millisecond, 8e6)
	// s0 -> s1 is 1 hop, s0 -> s3 is 3 hops.
	l1, _ := n.LinkBetween("s0", "s1")
	l3, _ := n.LinkBetween("s0", "s3")
	if l1.Latency != 2*time.Millisecond || l3.Latency != 6*time.Millisecond {
		t.Fatalf("ring latencies: %v %v", l1.Latency, l3.Latency)
	}
	// Wrap-around: s0 -> s5 is 1 hop.
	l5, _ := n.LinkBetween("s0", "s5")
	if l5.Latency != 2*time.Millisecond {
		t.Fatalf("wrap-around latency %v", l5.Latency)
	}
	// Nearest from s0 must be the two ring neighbors.
	near, _ := n.Nearest("s0", 2)
	if len(near) != 2 || (near[0] != "s1" && near[0] != "s5") {
		t.Fatalf("ring Nearest = %v", near)
	}
}

func TestRandomizeDeterministic(t *testing.T) {
	a := mustNew(t, "x", "y", "z")
	b := mustNew(t, "x", "y", "z")
	a.Randomize(7, time.Millisecond, 50*time.Millisecond, 1e5, 1e7)
	b.Randomize(7, time.Millisecond, 50*time.Millisecond, 1e5, 1e7)
	la, _ := a.LinkBetween("x", "z")
	lb, _ := b.LinkBetween("x", "z")
	if la != lb {
		t.Fatal("Randomize not deterministic for equal seeds")
	}
	// Intra-site LAN untouched.
	lan, _ := a.LinkBetween("x", "x")
	if lan != DefaultLANLink {
		t.Fatal("Randomize clobbered LAN link")
	}
}

// Property: TransferTime is symmetric, monotone in size, and never less
// than the link latency.
func TestTransferTimeProperty(t *testing.T) {
	sites := []string{"a", "b", "c", "d"}
	n := mustNew(t, sites...)
	n.Randomize(11, time.Millisecond, 40*time.Millisecond, 1e5, 1e7)
	f := func(szRaw uint32, iRaw, jRaw uint8) bool {
		size := int64(szRaw % 10_000_000)
		i := int(iRaw) % len(sites)
		j := int(jRaw) % len(sites)
		ab, err1 := n.TransferTime(size, sites[i], sites[j])
		ba, err2 := n.TransferTime(size, sites[j], sites[i])
		bigger, err3 := n.TransferTime(size+1000, sites[i], sites[j])
		l, err4 := n.LinkBetween(sites[i], sites[j])
		return err1 == nil && err2 == nil && err3 == nil && err4 == nil &&
			ab == ba && bigger >= ab && ab >= l.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
