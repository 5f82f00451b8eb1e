package jobsapi

import (
	"strconv"
	"sync"

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

// DefaultEventBuffer sizes the broker's replay ring and each
// subscriber's delivery buffer when the caller passes 0.
const DefaultEventBuffer = 4096

// Broker is the bounded fan-out hub between the job pipeline and the
// streaming API: publishers (job lifecycle transitions, the execution
// engine's recovery sink) push events in, and any number of HTTP
// subscribers receive them with monotonic cursors.
//
// Both sides are bounded so the board can never be blocked by a slow
// reader: Publish never waits — a subscriber whose delivery buffer is
// full is evicted (its channel closes) rather than backpressuring the
// pipeline — and a replay ring of the most recent events serves
// Last-Event-ID reconnects without holding per-client state.
type Broker struct {
	mu   sync.Mutex
	next uint64 // cursor of the next event to publish (first is 1)
	// ring holds the most recent events for reconnect replay; len(ring)
	// is the bound, start indexes the oldest retained event.
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
		"Slow subscribers evicted because their delivery buffer overflowed.").With()
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
// means the subscription ended (broker shut down, or this consumer fell
// behind and was evicted — check Evicted). Always call Close when done.
type Subscriber struct {
	// C delivers matched events in cursor order.
	C <-chan StreamEvent

	broker  *Broker
	ch      chan StreamEvent
	match   func(StreamEvent) bool
	evicted bool
	closed  bool
}

// Evicted reports whether the broker dropped this subscriber because
// its delivery buffer overflowed (the slow-consumer policy: the board
// is never blocked; the reader must resubscribe with its last cursor).
func (s *Subscriber) Evicted() bool {
	s.broker.mu.Lock()
	defer s.broker.mu.Unlock()
	return s.evicted
}

// Close detaches the subscriber. Idempotent; safe while the broker
// publishes concurrently.
func (s *Subscriber) Close() {
	s.broker.mu.Lock()
	defer s.broker.mu.Unlock()
	s.broker.dropLocked(s)
}

// dropLocked removes a subscriber and closes its channel exactly once.
// Caller holds b.mu — which is what makes close safe: every send to
// s.ch also happens under b.mu, so no send can race the close.
func (b *Broker) dropLocked(s *Subscriber) {
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs, s)
	close(s.ch)
}

// Publish assigns the next cursor to a job event, retains it for
// replay, and fans it out to every matching subscriber. It never
// blocks: a subscriber without buffer space is evicted instead.
func (b *Broker) Publish(typ string, job services.JobStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	if b.onPublish != nil {
		b.onPublish(b.next)
	}
	ev := StreamEvent{Cursor: b.next, Type: typ, Job: job}
	if b.published != nil {
		b.published.Inc()
	}
	// Retain in the ring, overwriting the oldest once full.
	i := (b.start + b.count) % len(b.ring)
	b.ring[i] = ev
	if b.count < len(b.ring) {
		b.count++
	} else {
		b.start = (b.start + 1) % len(b.ring)
		if b.overwritten != nil {
			b.overwritten.Inc()
		}
	}
	for s := range b.subs {
		if s.match != nil && !s.match(ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			// Slow consumer: drop it rather than block the pipeline. The
			// closed channel tells the reader to resubscribe from its last
			// processed cursor (the replay ring bridges the gap).
			s.evicted = true
			b.dropLocked(s)
			if b.evictedCnt != nil {
				b.evictedCnt.Inc()
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
//
// missed reports whether events between `after` and the oldest retained
// event were already evicted from the replay ring — the subscriber
// cannot be given a gapless resume and should re-synchronize from
// current state (the SSE handlers send a snapshot event).
func (b *Broker) Subscribe(after uint64, buffer int, match func(StreamEvent) bool) (sub *Subscriber, replay []StreamEvent, missed bool) {
	if buffer <= 0 {
		buffer = DefaultEventBuffer
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
		ch:     make(chan StreamEvent, buffer),
		match:  match,
	}
	s.C = s.ch
	b.subs[s] = struct{}{}
	return s, replay, missed
}

// Subscribers reports how many consumers are attached (monitoring and
// tests).
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
