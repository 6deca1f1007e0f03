package httpapi

// GET /api/v1/events streams the telemetry event bus as Server-Sent Events:
// every task span and node-health transition, live, as it is recorded.
// Clients filter with ?task=<id> (exact match) and ?kind=<kind> (repeatable;
// any listed kind matches). The stream runs until the client disconnects;
// a comment keepalive goes out while the bus is quiet so idle proxies keep
// the connection open. The subscription is bounded — a client that stops
// reading loses events rather than stalling enactments (see the bus contract
// in internal/telemetry).
//
// Resume: each event's SSE id is its bus sequence number. A reconnecting
// client sends Last-Event-ID (the standard EventSource behavior) and the
// stream replays the retained events it missed before going live. The
// replay ring is bounded (telemetry.DefaultReplayCap); events that aged
// out of it are gone, and the stream says so with one "gap" event carrying
// the count of permanently missed events, so consumers know their view has
// a hole instead of silently losing it. Events published before the bus
// ever had a subscriber carry no sequence number and are outside the
// resume space entirely — a resuming client necessarily subscribed before
// anything it could have seen was published.

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// keepaliveInterval is how often an idle event stream emits an SSE comment.
const keepaliveInterval = 15 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "response writer cannot stream")
		return
	}
	tel := s.telemetry()
	if tel == nil {
		s.writeError(w, r, http.StatusServiceUnavailable, "no_telemetry", "telemetry registry disabled")
		return
	}
	q := r.URL.Query()
	taskFilter := q.Get("task")
	kindFilter := map[string]bool{}
	for _, k := range q["kind"] {
		kindFilter[k] = true
	}

	resume := false
	after := uint64(0)
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		parsed, err := strconv.ParseUint(lei, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_request", "Last-Event-ID must be a sequence number: %v", err)
			return
		}
		resume, after = true, parsed
	}

	sub := tel.Subscribe(0)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	// The opening comment both primes proxies and guarantees the client's
	// request has returned only after the subscription is live, so events
	// caused by anything the client does next are never missed.
	fmt.Fprint(w, ": stream opened\n\n")
	flusher.Flush()

	emit := func(ev telemetry.Event) bool {
		if taskFilter != "" && ev.Task != taskFilter {
			return false
		}
		if len(kindFilter) > 0 && !kindFilter[ev.Kind] {
			return false
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
		return true
	}

	// Replay the gap since the client's Last-Event-ID (subscription first,
	// replay second: anything published in between arrives on the live
	// channel and is deduplicated by sequence number below).
	lastSeq := uint64(0)
	if resume {
		missed, missedCount := tel.EventsSince(after)
		if missedCount > 0 {
			fmt.Fprintf(w, "event: gap\ndata: {\"missed\": %d, \"after\": %d}\n\n", missedCount, after)
		}
		lastSeq = after
		for _, ev := range missed {
			emit(ev)
			lastSeq = ev.Seq
		}
		flusher.Flush()
	}

	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			if s.logger != nil {
				s.logger.Debug("event stream closed",
					slog.Int("sent", sent), slog.Uint64("dropped", sub.Dropped()))
			}
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case ev := <-sub.Events():
			if ev.Seq <= lastSeq {
				continue // already delivered during replay
			}
			lastSeq = ev.Seq
			if emit(ev) {
				flusher.Flush()
				sent++
			}
		}
	}
}
