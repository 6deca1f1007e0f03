package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTaskTraceHierarchy submits a task carrying a client traceparent and an
// X-Request-Id and checks the single-node trace is a proper tree: the task
// root joins the client's trace, every stage span (queue_wait, enact,
// journal_commit) hangs off the root with a measured duration, and point
// events are parented rather than floating.
func TestTaskTraceHierarchy(t *testing.T) {
	_, ts := testServer(t)
	client := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}

	sub := podSubmission("T-hier")
	body, err := json.Marshal(sub)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/tasks", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", client.Traceparent())
	req.Header.Set("X-Request-Id", "req-hier-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	pollTerminal(t, ts.URL+"/api/v1/tasks/T-hier")

	var view traceView
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-hier/trace", &view); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if view.TraceID != client.TraceID {
		t.Fatalf("trace ID %q, want the client's %q", view.TraceID, client.TraceID)
	}

	var root *telemetry.Span
	durations := map[string]int{}
	ids := map[string]bool{}
	for i := range view.Spans {
		s := &view.Spans[i]
		if s.SpanID != "" {
			ids[s.SpanID] = true
			durations[s.Kind]++
			if s.DurationSec < 0 {
				t.Errorf("%s span has negative duration %v", s.Kind, s.DurationSec)
			}
		}
		if s.Kind == "task" {
			root = s
		}
		if s.TraceID != client.TraceID {
			t.Errorf("%s span trace %q, want %q", s.Kind, s.TraceID, client.TraceID)
		}
	}
	if root == nil {
		t.Fatal("no task root span recorded")
	}
	if root.ParentID != client.SpanID {
		t.Errorf("root ParentID %q, want the client span %q", root.ParentID, client.SpanID)
	}
	if root.Attrs["request.id"] != "req-hier-1" {
		t.Errorf("root request.id attr = %q, want req-hier-1", root.Attrs["request.id"])
	}
	if root.DurationSec <= 0 {
		t.Errorf("root DurationSec = %v, want > 0", root.DurationSec)
	}
	for _, kind := range []string{"queue_wait", "enact", "journal_commit"} {
		if durations[kind] == 0 {
			t.Errorf("no %s duration span; kinds = %v", kind, durations)
		}
	}
	// Every span is linked: parents resolve within the trace (the root's
	// parent is the client's remote span, by construction).
	for _, s := range view.Spans {
		if s.SpanID == root.SpanID {
			continue
		}
		if s.ParentID == "" || !(ids[s.ParentID] || s.ParentID == client.SpanID) {
			t.Errorf("span kind=%s name=%s has unresolvable parent %q", s.Kind, s.Name, s.ParentID)
		}
	}

	// The OTLP rendering carries the same spans under one resource.
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-hier/trace?format=otlp", &otlp); code != 200 {
		t.Fatalf("otlp trace status %d", code)
	}
	if len(otlp.ResourceSpans) != 1 || len(otlp.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("otlp shape = %+v", otlp)
	}
	for _, s := range otlp.ResourceSpans[0].ScopeSpans[0].Spans {
		if s.TraceID != client.TraceID {
			t.Fatalf("otlp span trace %q, want %q", s.TraceID, client.TraceID)
		}
	}
}

// TestEventsSSEResume reconnects with Last-Event-ID and checks the handler
// replays the retained events published while the client was away, without
// duplicating what it already saw.
func TestEventsSSEResume(t *testing.T) {
	_, ts := testServer(t)

	// First connection: latches the replay ring and reads a few events.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/events?task=T-resume", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	submitObserved(t, ts.URL, "T-resume")
	lastID := ""
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		if id, ok := strings.CutPrefix(scanner.Text(), "id: "); ok {
			lastID = id
			break // disconnect after the first event
		}
	}
	cancel()
	resp.Body.Close()
	if lastID == "" {
		t.Fatal("no event id arrived on the first connection")
	}

	// Let the task finish while nobody is connected, then resume.
	pollTerminal(t, ts.URL+"/api/v1/tasks/T-resume")

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, http.MethodGet, ts.URL+"/api/v1/events?task=T-resume", nil)
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Last-Event-ID", lastID)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d", resp2.StatusCode)
	}

	// The task already completed: its complete event must arrive from the
	// replay ring, with a strictly increasing id and no duplicates.
	prev := mustUint(t, lastID)
	sawComplete := false
	scanner2 := bufio.NewScanner(resp2.Body)
	for scanner2.Scan() {
		line := scanner2.Text()
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			seq := mustUint(t, id)
			if seq <= prev {
				t.Fatalf("replayed id %d not after %d", seq, prev)
			}
			prev = seq
		}
		if kind, ok := strings.CutPrefix(line, "event: "); ok && kind == "complete" {
			sawComplete = true
			break
		}
	}
	if !sawComplete {
		t.Fatalf("resumed stream never replayed the complete event (scan err %v)", scanner2.Err())
	}
}

// TestEventsSSEBadLastEventID rejects a non-numeric cursor up front.
func TestEventsSSEBadLastEventID(t *testing.T) {
	_, ts := testServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func mustUint(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad uint %q: %v", s, err)
	}
	return v
}
