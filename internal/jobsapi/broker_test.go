package jobsapi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"vdce/internal/services"
)

// jst builds a minimal job status for broker tests.
func jst(id, owner, state string) services.JobStatus {
	return services.JobStatus{ID: id, Owner: owner, State: state, SubmittedAt: time.Unix(1000, 0)}
}

func TestBrokerDeliversInCursorOrder(t *testing.T) {
	b := NewBroker(16)
	sub, replay, missed := b.Subscribe(0, 16, nil)
	defer sub.Close()
	if len(replay) != 0 || missed {
		t.Fatalf("fresh subscribe: replay=%d missed=%v, want none", len(replay), missed)
	}
	for i := 1; i <= 5; i++ {
		b.Publish(EventState, jst(fmt.Sprintf("job-%d", i), "ana", services.JobStateQueued))
	}
	var last uint64
	for i := 1; i <= 5; i++ {
		ev := <-sub.C
		if ev.Cursor <= last {
			t.Fatalf("cursor not strictly monotonic: %d after %d", ev.Cursor, last)
		}
		last = ev.Cursor
		if want := fmt.Sprintf("job-%d", i); ev.Job.ID != want {
			t.Fatalf("event %d = %s, want %s", i, ev.Job.ID, want)
		}
	}
	if got := b.Cursor(); got != 5 {
		t.Fatalf("broker cursor = %d, want 5", got)
	}
}

func TestBrokerResumeAfterCursorIsGapless(t *testing.T) {
	b := NewBroker(64)
	for i := 1; i <= 10; i++ {
		b.Publish(EventState, jst(fmt.Sprintf("job-%d", i), "ana", services.JobStateQueued))
	}
	// Resume after cursor 4: replay must be exactly 5..10, once each.
	sub, replay, missed := b.Subscribe(4, 16, nil)
	defer sub.Close()
	if missed {
		t.Fatal("resume within the ring reported missed")
	}
	if len(replay) != 6 {
		t.Fatalf("replay length = %d, want 6", len(replay))
	}
	for i, ev := range replay {
		if want := uint64(5 + i); ev.Cursor != want {
			t.Fatalf("replay[%d].Cursor = %d, want %d (gap or duplicate)", i, ev.Cursor, want)
		}
	}
	// New events continue after the replay with no overlap.
	b.Publish(EventState, jst("job-11", "ana", services.JobStateDone))
	if ev := <-sub.C; ev.Cursor != 11 {
		t.Fatalf("live event cursor = %d, want 11", ev.Cursor)
	}
}

func TestBrokerReportsMissedWhenRingEvicted(t *testing.T) {
	b := NewBroker(4)
	for i := 1; i <= 10; i++ {
		b.Publish(EventState, jst(fmt.Sprintf("job-%d", i), "ana", services.JobStateQueued))
	}
	// The ring retains 7..10; resuming after 2 has an unbridgeable gap.
	sub, replay, missed := b.Subscribe(2, 16, nil)
	defer sub.Close()
	if !missed {
		t.Fatal("resume past the ring did not report missed")
	}
	if len(replay) != 4 || replay[0].Cursor != 7 {
		t.Fatalf("replay = %d events starting %d, want the 4 retained from 7", len(replay), replay[0].Cursor)
	}
	// Resuming exactly at the eviction boundary (oldest-1) is gapless.
	if _, replay, missed := b.Subscribe(6, 16, nil); missed || len(replay) != 4 {
		t.Fatalf("boundary resume: missed=%v replay=%d, want clean 4", missed, len(replay))
	}
}

func TestBrokerEvictsSlowConsumerWithoutBlocking(t *testing.T) {
	b := NewBroker(64)
	slow, _, _ := b.Subscribe(0, 2, nil)
	fast, _, _ := b.Subscribe(0, 64, nil)
	defer fast.Close()
	done := make(chan struct{})
	go func() {
		// Publish far past the slow subscriber's buffer; must never block.
		for i := 1; i <= 32; i++ {
			b.Publish(EventState, jst(fmt.Sprintf("job-%d", i), "ana", services.JobStateQueued))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a slow consumer")
	}
	// The slow subscriber's channel drains its 2 buffered events then
	// closes; Evicted distinguishes eviction from a plain Close.
	n := 0
	for range slow.C {
		n++
	}
	if n != 2 {
		t.Fatalf("slow consumer drained %d events, want its 2 buffered", n)
	}
	if !slow.Evicted() {
		t.Fatal("slow consumer not marked evicted")
	}
	// The fast subscriber got everything.
	for i := 1; i <= 32; i++ {
		ev := <-fast.C
		if ev.Cursor != uint64(i) {
			t.Fatalf("fast consumer cursor = %d, want %d", ev.Cursor, i)
		}
	}
	if b.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1 (slow one dropped)", b.Subscribers())
	}
}

func TestBrokerMatchFiltersReplayAndLive(t *testing.T) {
	b := NewBroker(16)
	b.Publish(EventState, jst("job-1", "ana", services.JobStateQueued))
	b.Publish(EventState, jst("job-2", "bo", services.JobStateQueued))
	onlyBo := func(ev StreamEvent) bool { return ev.Job.Owner == "bo" }
	sub, replay, _ := b.Subscribe(1, 16, onlyBo)
	defer sub.Close()
	if len(replay) != 1 || replay[0].Job.ID != "job-2" {
		t.Fatalf("filtered replay = %+v, want just job-2", replay)
	}
	b.Publish(EventState, jst("job-3", "ana", services.JobStateRunning))
	b.Publish(EventState, jst("job-4", "bo", services.JobStateRunning))
	if ev := <-sub.C; ev.Job.ID != "job-4" {
		t.Fatalf("filtered live event = %s, want job-4", ev.Job.ID)
	}
}

// TestBrokerRestartCursorSemantics covers NewBrokerAt, the restart
// constructor: cursors resume above the persisted high-water mark,
// onPublish observes every assignment (the durable store hooks it),
// and a client resuming with a pre-restart cursor is told it missed
// events instead of silently skipping the gap.
func TestBrokerRestartCursorSemantics(t *testing.T) {
	var observed []uint64
	b := NewBrokerAt(8, 100, func(cur uint64) { observed = append(observed, cur) })
	if got := b.Cursor(); got != 100 {
		t.Fatalf("restarted broker Cursor() = %d, want 100", got)
	}

	// A cursor at the high-water mark resumes cleanly (nothing new yet).
	sub, replay, missed := b.Subscribe(100, 4, nil)
	sub.Close()
	if missed || len(replay) != 0 {
		t.Fatalf("resume at mark: replay=%d missed=%v", len(replay), missed)
	}
	// A cursor below the mark is stale — those events lived in the
	// previous incarnation's ring and are gone.
	sub, replay, missed = b.Subscribe(5, 4, nil)
	sub.Close()
	if !missed {
		t.Fatal("stale pre-restart cursor resumed without missed signal")
	}
	if len(replay) != 0 {
		t.Fatalf("stale resume replayed %d events", len(replay))
	}
	// A cursor from the future (e.g. a different store) is also a gap.
	sub, _, missed = b.Subscribe(1000, 4, nil)
	sub.Close()
	if !missed {
		t.Fatal("future cursor resumed without missed signal")
	}

	// New publishes continue the persisted sequence and are observed.
	b.Publish(EventState, jst("job-1", "ana", services.JobStateQueued))
	b.Publish(EventState, jst("job-2", "ana", services.JobStateRunning))
	if len(observed) != 2 || observed[0] != 101 || observed[1] != 102 {
		t.Fatalf("onPublish observed %v, want [101 102]", observed)
	}
	sub, replay, missed = b.Subscribe(100, 4, nil)
	defer sub.Close()
	if missed || len(replay) != 2 || replay[0].Cursor != 101 {
		t.Fatalf("post-restart replay = %+v missed=%v", replay, missed)
	}
}

// TestBrokerEvictsSubscriberTheRingOverran: a filtered subscriber owes
// few events, far under its bound, but once the ring is about to
// overwrite one it has not received it is evicted. It still gets the
// event its goroutine had already copied out, and then C closes, with
// no gap where the overwritten event was.
func TestBrokerEvictsSubscriberTheRingOverran(t *testing.T) {
	b := NewBroker(16)
	sub, _, _ := b.Subscribe(0, 0, func(ev StreamEvent) bool { return ev.Job.ID == "job-1" })
	defer sub.Close()
	queued := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return sub.queued
	}
	b.Publish(EventState, jst("job-1", "ana", services.JobStateQueued))
	for deadline := time.Now().Add(5 * time.Second); queued() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the goroutine never copied the first event out")
		}
		runtime.Gosched()
	}
	b.Publish(EventState, jst("job-1", "ana", services.JobStateRunning)) // cursor 2, stays in the ring
	for i := 0; i < 16; i++ {
		b.Publish(EventState, jst("job-2", "bo", services.JobStateQueued)) // the last overwrites cursor 2
	}
	var got []uint64
	for {
		select {
		case ev, ok := <-sub.C:
			if ok {
				got = append(got, ev.Cursor)
				continue
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("C still open after %v: the overrun subscriber was not evicted", got)
		}
		break
	}
	if len(got) != 1 || got[0] != 1 || !sub.Evicted() {
		t.Fatalf("read %v, Evicted() = %v; want [1], true", got, sub.Evicted())
	}
}

// TestSubscribersHoldNoBuffer: an idle subscriber costs its goroutine
// and its cursor, not a delivery buffer the size of the ring.
func TestSubscribersHoldNoBuffer(t *testing.T) {
	const subs = 32
	b := NewBroker(4096)
	held := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc + m.StackInuse)
	}
	before := held()
	handles := make([]*Subscriber, subs)
	for i := range handles {
		handles[i], _, _ = b.Subscribe(0, 0, nil)
	}
	per := (held() - before) / subs
	t.Logf("an idle subscriber on a %d-event ring holds %d bytes", len(b.ring), per)
	for _, s := range handles {
		s.Close()
	}
	if per >= 64<<10 {
		t.Fatalf("an idle subscriber holds %d bytes, budget %d", per, 64<<10)
	}
}

// refBroker is the channel broker the ring-cursor broker replaced, kept
// as the model it must agree with: every subscriber owns a channel of
// its buffer's size, Publish copies each matched event into it, and a
// subscriber whose channel is full is evicted with its buffered events
// still readable.
type refBroker struct {
	next  uint64
	ring  []StreamEvent
	start int
	count int
	subs  map[*refSub]struct{}
}

type refSub struct {
	ch      chan StreamEvent
	match   func(StreamEvent) bool
	evicted bool
	closed  bool
	sent    []uint64 // cursors of the events put into ch
}

func newRefBroker(buffer int) *refBroker {
	return &refBroker{ring: make([]StreamEvent, buffer), subs: make(map[*refSub]struct{})}
}

func (b *refBroker) drop(s *refSub) {
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs, s)
	close(s.ch)
}

func (b *refBroker) Publish(typ string, job services.JobStatus) {
	b.next++
	ev := StreamEvent{Cursor: b.next, Type: typ, Job: job}
	i := (b.start + b.count) % len(b.ring)
	b.ring[i] = ev
	if b.count < len(b.ring) {
		b.count++
	} else {
		b.start = (b.start + 1) % len(b.ring)
	}
	for s := range b.subs {
		if s.match != nil && !s.match(ev) {
			continue
		}
		select {
		case s.ch <- ev:
			s.sent = append(s.sent, ev.Cursor)
		default:
			s.evicted = true
			b.drop(s)
		}
	}
}

func (b *refBroker) Subscribe(after uint64, buffer int, match func(StreamEvent) bool) (*refSub, []StreamEvent, bool) {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	var replay []StreamEvent
	missed := false
	if after > 0 {
		switch {
		case b.count > 0 && after < b.ring[b.start].Cursor-1:
			missed = true
		case b.count == 0 && after < b.next:
			missed = true
		case after > b.next:
			missed = true
		}
		for i := 0; i < b.count; i++ {
			ev := b.ring[(b.start+i)%len(b.ring)]
			if ev.Cursor > after && (match == nil || match(ev)) {
				replay = append(replay, ev)
			}
		}
	}
	s := &refSub{ch: make(chan StreamEvent, buffer), match: match}
	b.subs[s] = struct{}{}
	return s, replay, missed
}

// TestBrokerMatchesChannelModel runs fixed-seed streams of publish,
// read, subscribe and close operations against the broker and against
// refBroker. Every subscriber that never falls a ring's length behind —
// whose oldest unread event is never overwritten — must read the same
// events in the same order and report the same Evicted. A closed
// subscriber must read a prefix of what the model had buffered for it
// and then see C close.
func TestBrokerMatchesChannelModel(t *testing.T) {
	const ringLen = 8
	seeds, ops := 60, 300
	if testing.Short() {
		seeds = 10
	}
	owners := []string{"ana", "bo", "cy"}
	var reads, evicted, behind, total int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBroker(ringLen), newRefBroker(ringLen)
		type pair struct {
			sub    *Subscriber
			ref    *refSub
			read   int  // events read from both sides
			behind bool // fell a ring's length behind: compared no further
			done   bool // closed, or evicted and drained
		}
		var pairs []*pair
		fail := func(p *pair, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, subscriber %d: %s", seed, slices.Index(pairs, p), fmt.Sprintf(format, args...))
		}
		recv := func(p *pair) (StreamEvent, bool) {
			t.Helper()
			select {
			case ev, ok := <-p.sub.C:
				return ev, ok
			case <-time.After(5 * time.Second):
				fail(p, "C delivered nothing in 5s")
				return StreamEvent{}, false
			}
		}
		// settle waits until the goroutine has counted what the reader took,
		// as the model's channel does the moment it is read.
		settle := func(p *pair) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); p.sub.owed.Load() != int64(len(p.ref.ch)); {
				if time.Now().After(deadline) {
					fail(p, "owes %d events, the model %d", p.sub.owed.Load(), len(p.ref.ch))
				}
				runtime.Gosched()
			}
		}
		// read takes one event from both sides, or sees both close.
		read := func(p *pair) {
			t.Helper()
			select {
			case want, ok := <-p.ref.ch:
				if p.behind {
					return
				}
				got, gotOK := recv(p)
				if ok != gotOK || got.Cursor != want.Cursor || got.Job.ID != want.Job.ID {
					fail(p, "read %d: got cursor %d (%v), model %d (%v)", p.read, got.Cursor, gotOK, want.Cursor, ok)
				}
				if !ok {
					if ev := p.sub.Evicted(); ev != p.ref.evicted {
						fail(p, "Evicted() = %v, model %v", ev, p.ref.evicted)
					}
					p.done = true
					return
				}
				p.read++
				reads++
				settle(p)
			default:
			}
		}
		// pick returns a random pair still open, or nil.
		pick := func() *pair {
			var open []*pair
			for _, p := range pairs {
				if !p.done {
					open = append(open, p)
				}
			}
			if len(open) == 0 {
				return nil
			}
			return open[rng.Intn(len(open))]
		}
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 3: // publish
				st := jst(fmt.Sprintf("job-%d", rng.Intn(6)), owners[rng.Intn(len(owners))], services.JobStateRunning)
				b.Publish(EventState, st)
				ref.Publish(EventState, st)
				for _, p := range pairs {
					if !p.done && p.read < len(p.ref.sent) && p.ref.sent[p.read]+ringLen <= ref.next {
						p.behind = true
					}
				}
			case k < 8: // read
				if p := pick(); p != nil {
					read(p)
				}
			case k < 9: // subscribe
				after := uint64(0)
				if rng.Intn(2) == 0 {
					after = uint64(rng.Intn(int(ref.next) + 3))
				}
				buffer := rng.Intn(ringLen + 1)
				var match func(StreamEvent) bool
				switch rng.Intn(3) {
				case 1:
					owner := owners[rng.Intn(len(owners))]
					match = func(ev StreamEvent) bool { return ev.Job.Owner == owner }
				case 2:
					id := fmt.Sprintf("job-%d", rng.Intn(6))
					match = func(ev StreamEvent) bool { return ev.Job.ID == id }
				}
				p := &pair{}
				var replay, refReplay []StreamEvent
				var missed, refMissed bool
				p.sub, replay, missed = b.Subscribe(after, buffer, match)
				p.ref, refReplay, refMissed = ref.Subscribe(after, buffer, match)
				pairs = append(pairs, p)
				if missed != refMissed || len(replay) != len(refReplay) {
					fail(p, "Subscribe(%d): replay %d missed %v, model %d %v", after, len(replay), missed, len(refReplay), refMissed)
				}
				for i := range replay {
					if replay[i].Cursor != refReplay[i].Cursor {
						fail(p, "replay[%d] = %d, model %d", i, replay[i].Cursor, refReplay[i].Cursor)
					}
				}
				if p.sub.Start() != ref.next {
					fail(p, "Start() = %d, want the broker's cursor %d", p.sub.Start(), ref.next)
				}
			default: // close
				p := pick()
				if p == nil {
					continue
				}
				p.sub.Close()
				ref.drop(p.ref)
				if !p.behind && p.sub.Evicted() != p.ref.evicted {
					fail(p, "Evicted() = %v at Close, model %v", p.sub.Evicted(), p.ref.evicted)
				}
				var buffered []StreamEvent
				for ev := range p.ref.ch {
					buffered = append(buffered, ev)
				}
				for i := 0; ; i++ {
					ev, ok := recv(p)
					if !ok {
						break
					}
					if !p.behind && (i >= len(buffered) || ev.Cursor != buffered[i].Cursor) {
						fail(p, "read cursor %d after Close, not a prefix of the model's %d buffered", ev.Cursor, len(buffered))
					}
				}
				p.done = true
			}
		}
		// Drain every open pair: what the model still holds must come out of
		// C, and a subscriber evicted in the model must then see C close.
		for _, p := range pairs {
			for !p.done && !p.behind && (len(p.ref.ch) > 0 || p.ref.evicted) {
				read(p)
			}
			if !p.done && !p.behind && p.sub.Evicted() {
				fail(p, "evicted, but the model kept it")
			}
			p.sub.Close()
			total++
			switch {
			case p.behind:
				behind++
			case p.ref.evicted:
				evicted++
			}
		}
	}
	t.Logf("%d subscribers: %d compared reads, %d evicted and compared, %d fell a ring behind", total, reads, evicted, behind)
	if evicted == 0 || behind == 0 {
		t.Fatal("the streams never evicted a compared subscriber or left one a ring behind")
	}
}
