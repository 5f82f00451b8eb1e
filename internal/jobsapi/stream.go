package jobsapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// The streaming front door. Two endpoints retire status polling:
//
//	GET /v1/jobs/{id}/events   one job's lifecycle as Server-Sent
//	                           Events; the stream ends after the
//	                           terminal event.
//	GET /v1/events             the site-wide firehose (filter: owner,
//	                           state), running until the client
//	                           disconnects.
//
// Every SSE frame carries the broker cursor as its id: field and the
// full StreamEvent as data:, so a dropped connection resumes losslessly
// with Last-Event-ID (or ?after=<cursor>) — the broker replays retained
// events after that cursor. When the requested cursor has already been
// evicted from the bounded replay ring, the stream opens with a
// synthesized "snapshot" event (per-job stream: that job's current
// status) or a "reset" comment (firehose: re-list, then continue), so
// clients converge instead of silently missing transitions.
//
// Subscribers read the broker's replay ring at their own cursor: one a
// ring's length behind is evicted — the stream closes and the client
// reconnects with its last cursor — so it can never block the board.

// resumeCursor extracts the client's resume position: the standard SSE
// Last-Event-ID header, or the after query parameter (header wins).
func resumeCursor(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("jobsapi: resume cursor must be an unsigned integer, got %q", raw)
	}
	return v, nil
}

// sseWriter emits Server-Sent Events frames with immediate flushing.
// Each frame is assembled in buf, which the connection reuses, and
// leaves in one Write.
type sseWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	buf []byte
}

func newSSEWriter(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	f.Flush()
	return &sseWriter{w: w, f: f}, true
}

// event writes one frame: id is the resume cursor, the event name is
// the StreamEvent type, and data is the JSON-encoded event.
func (s *sseWriter) event(ev StreamEvent) error {
	b := append(s.buf[:0], "id: "...)
	b = strconv.AppendUint(b, ev.Cursor, 10)
	b = append(b, "\nevent: "...)
	b = append(b, ev.Type...)
	b = append(b, "\ndata: "...)
	b = ev.AppendJSON(b)
	return s.send(append(b, "\n\n"...))
}

// comment writes an SSE comment line (ignored by event dispatch,
// visible to diagnostics).
func (s *sseWriter) comment(text string) error {
	b := append(s.buf[:0], ": "...)
	b = append(b, text...)
	return s.send(append(b, "\n\n"...))
}

// send writes and flushes one assembled frame, keeping its buffer.
func (s *sseWriter) send(frame []byte) error {
	s.buf = frame
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

// handleJobEvents streams one job's lifecycle. The subscription is
// registered before the initial snapshot is composed, so a transition
// landing in between is delivered, not lost.
func (c Config) handleJobEvents(w http.ResponseWriter, r *http.Request, user string) {
	if c.Events == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("jobsapi: event streaming not enabled"))
		return
	}
	id := r.PathValue("id")
	if _, ok := c.fetch(w, id, user); !ok {
		return
	}
	after, err := resumeCursor(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sub, replay, missed := c.Events.Subscribe(after, 0, func(ev StreamEvent) bool {
		return ev.Job.ID == id
	})
	defer sub.Close()
	out, ok := newSSEWriter(w)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("jobsapi: response writer cannot stream"))
		return
	}
	// A fresh subscriber (or one that outran the replay ring) starts
	// from the job's current status; a clean resume starts from its
	// replayed backlog. The snapshot is stamped with the subscription's
	// start cursor: every event delivered after it has a higher id, and
	// as Last-Event-ID it resumes before all of them.
	if after == 0 || missed {
		if s, found := c.Source.Job(id); found {
			snap := StreamEvent{Cursor: sub.Start(), Type: EventSnapshot, Job: s}
			// Events that raced in between subscribe and snapshot also come
			// through sub; dropping the replay avoids duplicating them.
			replay = nil
			if err := out.event(snap); err != nil {
				return
			}
			if s.Terminal() {
				return
			}
		}
	}
	for _, ev := range replay {
		if err := out.event(ev); err != nil {
			return
		}
		if ev.Job.Terminal() {
			return
		}
	}
	c.pump(r, out, sub, func(ev StreamEvent) bool { return ev.Job.Terminal() })
}

// handleFirehose streams every job event matching the owner/state
// filters. Owner-scoped mounts force the filter to the caller.
func (c Config) handleFirehose(w http.ResponseWriter, r *http.Request, user string) {
	if c.Events == nil {
		writeErr(w, http.StatusServiceUnavailable, errors.New("jobsapi: event streaming not enabled"))
		return
	}
	q := r.URL.Query()
	owner, state := q.Get("owner"), q.Get("state")
	if c.OwnerScoped {
		owner = user
	}
	after, err := resumeCursor(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sub, replay, missed := c.Events.Subscribe(after, 0, func(ev StreamEvent) bool {
		return ev.Job.Matches(owner, state)
	})
	defer sub.Close()
	out, ok := newSSEWriter(w)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("jobsapi: response writer cannot stream"))
		return
	}
	if missed {
		// The gap cannot be replayed; tell the client to re-list before
		// trusting the stream as complete.
		if err := out.comment("reset: events before this point were evicted; re-list /v1/jobs"); err != nil {
			return
		}
	}
	for _, ev := range replay {
		if err := out.event(ev); err != nil {
			return
		}
	}
	c.pump(r, out, sub, nil)
}

// pump forwards live events until the client disconnects, the
// subscriber is evicted as a slow consumer, or stop reports the stream
// is complete.
func (c Config) pump(r *http.Request, out *sseWriter, sub *Subscriber, stop func(StreamEvent) bool) {
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				if sub.Evicted() {
					// Best effort: the client reconnects from its last cursor.
					_ = out.comment("evicted: subscriber fell behind; reconnect with Last-Event-ID")
				}
				return
			}
			if err := out.event(ev); err != nil {
				return
			}
			if stop != nil && stop(ev) {
				return
			}
		}
	}
}
