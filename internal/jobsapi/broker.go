package jobsapi

import (
	"strconv"
	"sync"
	"sync/atomic"

	"vdce/internal/jsonw"
	"vdce/internal/obs"
	"vdce/internal/services"
)

// Stream event types. State transitions come from the job board's
// lifecycle publications; reschedules and host failures come from the
// execution engine's recovery event sink.
const (
	// EventState: the job moved through its lifecycle (queued,
	// scheduling, running, done, failed, canceled) or refreshed its
	// status (queue position, held hosts).
	EventState = "state"
	// EventRescheduled: the engine moved one of the job's tasks to a
	// replacement placement mid-run.
	EventRescheduled = "rescheduled"
	// EventHostFailure: one of the job's hosts failed or was confirmed
	// dead, forcing recovery.
	EventHostFailure = "host-failure"
	// EventSnapshot: a synthesized catch-up event carrying a job's
	// current status — sent at subscribe time so a client that joins (or
	// rejoins past the replay ring) always converges on present state.
	EventSnapshot = "snapshot"
	// EventRecovered: the control plane restarted and re-adopted this
	// job from the durable store — it was in flight when the previous
	// incarnation died and is being re-dispatched.
	EventRecovered = "recovered"
)

// StreamEvent is one notification on the job event stream.
type StreamEvent struct {
	// Cursor is the event's position in the site-wide stream: strictly
	// monotonic, dense per broker. Clients resume after a disconnect by
	// sending the last cursor they processed as Last-Event-ID (or the
	// after query parameter); the stream then continues with the first
	// event they have not seen.
	Cursor uint64 `json:"cursor"`
	// Type is one of EventState, EventRescheduled, EventHostFailure, or
	// EventSnapshot.
	Type string `json:"type"`
	// Job is the job's full status at the time of the event.
	Job services.JobStatus `json:"job"`
}

// AppendJSON appends the event as a JSON object — the data: payload of
// an SSE frame — in the byte order the struct tags declare.
func (ev StreamEvent) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"cursor":`...)
	dst = strconv.AppendUint(dst, ev.Cursor, 10)
	dst = append(dst, `,"type":`...)
	dst = jsonw.AppendString(dst, ev.Type)
	dst = append(dst, `,"job":`...)
	return append(ev.Job.AppendJSON(dst), '}')
}

// DefaultEventBuffer sizes the broker's replay ring when the caller
// passes 0.
const DefaultEventBuffer = 4096

// pumpBatch is how many events a subscriber copies per lock hold.
const pumpBatch = 8

// Broker is the bounded fan-out hub between the job pipeline and the
// streaming API: publishers (job lifecycle transitions, the execution
// engine's recovery sink) push events in, and any number of HTTP
// subscribers receive them with monotonic cursors.
//
// Each event is stored once, in a ring of the most recent events. The
// ring serves Last-Event-ID reconnects, and every live subscriber reads
// it at its own cursor, so a subscriber holds no events of its own.
// Publish never waits: a subscriber that falls too far behind is
// evicted (its channel closes) rather than backpressuring the pipeline.
type Broker struct {
	mu   sync.Mutex
	next uint64 // cursor of the next event to publish (first is 1)
	// ring holds the most recent events; len(ring) is the bound, start
	// indexes the oldest retained event.
	ring  []StreamEvent
	start int
	count int
	subs  map[*Subscriber]struct{}
	// onPublish, when set, observes every assigned cursor (called under
	// b.mu) — the durability hook persisting the stream's high-water
	// mark.
	onPublish func(uint64)
	// published/evicted/overwritten are the broker's registry counters,
	// installed by Instrument before concurrent use; nil until then, so
	// un-instrumented brokers (tests) pay nothing.
	published   *obs.Counter
	evictedCnt  *obs.Counter
	overwritten *obs.Counter
}

// Instrument registers the broker's counters on reg and installs the
// handles plus a subscriber gauge. Call once, before the broker sees
// concurrent publishes.
func (b *Broker) Instrument(reg *obs.Registry) {
	b.published = reg.Counter("vdce_events_published_total",
		"Events published to the job event broker.").With()
	b.evictedCnt = reg.Counter("vdce_events_subscribers_evicted_total",
		"Slow subscribers evicted because they fell too far behind the stream.").With()
	b.overwritten = reg.Counter("vdce_events_dropped_total",
		"Replay-ring events overwritten before any reconnect could replay them.").With()
	reg.GaugeFunc("vdce_events_subscribers",
		"Live event-stream subscribers.", nil,
		func(emit func(v float64, labelVals ...string)) {
			emit(float64(b.Subscribers()))
		})
}

// NewBroker returns a broker retaining the last buffer events for
// reconnect replay (0 means DefaultEventBuffer).
func NewBroker(buffer int) *Broker {
	return NewBrokerAt(buffer, 0, nil)
}

// NewBrokerAt returns a broker whose first published event gets cursor
// start+1, with onPublish (may be nil) observing every assigned cursor.
// A control plane restarting from a durable store resumes above the
// persisted high-water mark, so every cursor issued by a previous
// incarnation is strictly below every new one — stale Last-Event-ID
// resumes are detected as gaps instead of silently replaying the wrong
// events.
func NewBrokerAt(buffer int, start uint64, onPublish func(uint64)) *Broker {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
	}
	return &Broker{
		next:      start,
		ring:      make([]StreamEvent, buffer),
		subs:      make(map[*Subscriber]struct{}),
		onPublish: onPublish,
	}
}

// Subscriber is one live event consumer. Receive from C; a closed C
// means the subscription ended (Close was called, or this consumer fell
// behind and was evicted — check Evicted). Always call Close when done.
//
// A subscriber holds a cursor into the broker's ring, not a copy of the
// stream: its goroutine copies the events it is owed out of the ring, a
// batch per lock hold, and hands them over on the unbuffered C.
type Subscriber struct {
	// C delivers matched events in cursor order.
	C <-chan StreamEvent

	broker *Broker
	ch     chan StreamEvent
	wake   chan struct{} // one slot; closed by Close
	match  func(StreamEvent) bool
	start  uint64 // the broker's cursor when the subscription began
	bound  int64  // owed events past which the subscriber is evicted
	// owed counts matched events not yet received from C. The goroutine
	// lowers it right after each handover, so Publish sees the room as
	// soon as a reader makes it.
	owed atomic.Int64

	// Guarded by broker.mu: queued counts the owed events the goroutine
	// has not copied out of the ring yet; oldest is the first one's cursor.
	queued  int
	oldest  uint64
	evicted bool
	closed  bool
}

// Start returns the broker's cursor when the subscription began: every
// event C delivers has a higher one.
func (s *Subscriber) Start() uint64 { return s.start }

// Evicted reports whether the broker dropped this subscriber because it
// fell too far behind (the slow-consumer policy: the board is never
// blocked; the reader must resubscribe with its last cursor).
func (s *Subscriber) Evicted() bool {
	s.broker.mu.Lock()
	defer s.broker.mu.Unlock()
	return s.evicted
}

// Close detaches the subscriber and ends delivery at once: C closes
// without the events still owed. Idempotent; safe while the broker
// publishes concurrently.
func (s *Subscriber) Close() {
	s.broker.mu.Lock()
	defer s.broker.mu.Unlock()
	if !s.closed {
		s.closed = true
		delete(s.broker.subs, s)
		close(s.wake)
	}
}

// evictLocked detaches a subscriber that fell behind; its goroutine
// still hands over what it was owed, while the ring holds it, before
// closing C. The caller holds b.mu.
func (b *Broker) evictLocked(s *Subscriber) {
	s.evicted = true
	delete(b.subs, s)
	if b.evictedCnt != nil {
		b.evictedCnt.Inc()
	}
}

// Publish assigns the next cursor to a job event, stores it in the
// ring, and queues it for every matching subscriber without copying it.
// It never blocks. A subscriber is evicted when it would owe more than
// its bound, or when the ring overwrites an event it was owed and has
// not copied out.
func (b *Broker) Publish(typ string, job services.JobStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	if b.onPublish != nil {
		b.onPublish(b.next)
	}
	if b.published != nil {
		b.published.Inc()
	}
	// Store in the ring, overwriting the oldest once full. Cursors start
	// at 1, so lost stays 0 while the ring fills.
	var lost uint64
	i := (b.start + b.count) % len(b.ring)
	if b.count < len(b.ring) {
		b.count++
	} else {
		lost = b.ring[i].Cursor
		b.start = (b.start + 1) % len(b.ring)
		if b.overwritten != nil {
			b.overwritten.Inc()
		}
	}
	b.ring[i] = StreamEvent{Cursor: b.next, Type: typ, Job: job}
	for s := range b.subs {
		if s.queued > 0 && s.oldest == lost {
			b.evictLocked(s)
			continue
		}
		if s.match != nil && !s.match(b.ring[i]) {
			continue
		}
		if s.owed.Add(1) > s.bound {
			s.owed.Add(-1)
			b.evictLocked(s)
			continue
		}
		if s.queued++; s.queued == 1 {
			// The goroutine sleeps only with nothing queued.
			s.oldest = b.next
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}
}

// take copies into batch the next events s is owed, oldest first, and
// returns how many. done reports that none will follow: s is closed, or
// evicted with nothing owed left in the ring.
func (b *Broker) take(s *Subscriber, batch []StreamEvent) (n int, done bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.next - uint64(b.count) + 1 // the oldest cursor in the ring
	switch {
	case s.closed:
		return 0, true
	case s.queued == 0 || s.oldest < first:
		// Only an evicted subscriber can find its oldest event overwritten.
		return 0, s.evicted
	}
	for c := s.oldest; ; c++ {
		ev := &b.ring[(b.start+int(c-first))%len(b.ring)]
		if s.match != nil && !s.match(*ev) {
			continue
		}
		if n == len(batch) {
			s.oldest = c
			return n, false
		}
		batch[n] = *ev
		n++
		if s.queued--; s.queued == 0 {
			return n, false
		}
	}
}

// pump is the subscriber's goroutine. Its batch is the only copy of an
// event the subscriber holds, and only while the event is in flight.
func (s *Subscriber) pump() {
	defer close(s.ch)
	var batch [pumpBatch]StreamEvent
	for {
		n, done := s.broker.take(s, batch[:])
		if done {
			return
		}
		if n == 0 {
			if _, open := <-s.wake; !open {
				return
			}
		}
		for i := 0; i < n; {
			select {
			case s.ch <- batch[i]:
				s.owed.Add(-1)
				batch[i] = StreamEvent{}
				i++
			case _, open := <-s.wake:
				if !open {
					return
				}
			}
		}
	}
}

// Cursor returns the cursor of the most recently published event (0
// when nothing has been published).
func (b *Broker) Cursor() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Subscribe registers a consumer for events matching match (nil matches
// everything), resuming after cursor `after` (0 subscribes to new
// events only). Replayed events — retained events with cursor > after
// that match — are returned in order; events published later arrive on
// the subscriber's channel. The replay capture and the registration
// happen atomically, so no event is ever both missed and unreplayed.
// buffer bounds how many published events the subscriber may owe
// before it is evicted (0 means the ring's length).
//
// missed reports whether events between `after` and the oldest retained
// event were already evicted from the replay ring — the subscriber
// cannot be given a gapless resume and should re-synchronize from
// current state (the SSE handlers send a snapshot event).
func (b *Broker) Subscribe(after uint64, buffer int, match func(StreamEvent) bool) (sub *Subscriber, replay []StreamEvent, missed bool) {
	if buffer <= 0 {
		buffer = len(b.ring)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if after > 0 {
		switch {
		case b.count > 0 && after < b.ring[b.start].Cursor-1:
			// Events between after and the oldest retained one are gone.
			missed = true
		case b.count == 0 && after < b.next:
			// Nothing retained but cursors have moved past after — every
			// intervening event is unreplayable. The empty-ring case covers
			// a broker freshly restarted at a persisted high-water mark:
			// a pre-restart cursor must not silently resume with a gap.
			missed = true
		case after > b.next:
			// A cursor from the future: this broker never issued it (a
			// stale client talking to a restarted server whose high-water
			// mark lagged, or a corrupted value). Resynchronize.
			missed = true
		}
		for i := 0; i < b.count; i++ {
			ev := b.ring[(b.start+i)%len(b.ring)]
			if ev.Cursor <= after {
				continue
			}
			if match != nil && !match(ev) {
				continue
			}
			replay = append(replay, ev)
		}
	}
	s := &Subscriber{
		broker: b,
		ch:     make(chan StreamEvent),
		wake:   make(chan struct{}, 1),
		match:  match,
		start:  b.next,
		bound:  int64(buffer),
	}
	s.C = s.ch
	b.subs[s] = struct{}{}
	go s.pump()
	return s, replay, missed
}

// Subscribers reports how many consumers are attached (monitoring and
// tests).
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
