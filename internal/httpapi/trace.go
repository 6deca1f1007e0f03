package httpapi

// GET /api/v1/tasks/{id}/trace: the hierarchical task trace.
// ?format=otlp renders it as OTLP/JSON for external tooling; point events
// become OTLP span events on their parent span.

import (
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// traceparentHeader is the inbound W3C trace-context header: a submit that
// carries it joins the caller's trace.
const traceparentHeader = "traceparent"

// traceView is the GET /api/v1/tasks/{id}/trace response.
type traceView struct {
	TaskID  string           `json:"taskId"`
	TraceID string           `json:"traceId,omitempty"`
	Spans   []telemetry.Span `json:"spans"`
	Dropped uint64           `json:"dropped"`
}

func (s *Server) handleTaskTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.telemetry().LookupTrace(id)
	if tr == nil {
		// No trace segment: fall back to the engine for the 404 flavor.
		if _, err := s.env.Engine.Task(id); err != nil {
			if errors.Is(err, engine.ErrEvicted) {
				s.writeError(w, r, http.StatusNotFound, "task_evicted", "task %q finished and its record was evicted", id)
				return
			}
			s.writeError(w, r, http.StatusNotFound, "not_found", "no task %q", id)
			return
		}
	}
	var (
		spans   = []telemetry.Span{}
		traceID string
		dropped uint64
	)
	if tr != nil {
		if got := tr.Spans(); got != nil {
			spans = got
		}
		traceID = tr.Context().TraceID
		dropped = tr.Dropped()
	}
	if r.URL.Query().Get("format") == "otlp" {
		writeJSON(w, http.StatusOK, otlpExport(spans))
		return
	}
	writeJSON(w, http.StatusOK, traceView{
		TaskID: id, TraceID: traceID, Spans: spans, Dropped: dropped,
	})
}

// otlpExport renders a trace segment as OTLP/JSON: one resourceSpans
// entry. Duration spans map to OTLP spans; point events map to events on
// their parent span when it is present in the segment, and to
// zero-duration spans otherwise (write-at-end recording means a mid-run
// export can see events before their parent closes).
func otlpExport(spans []telemetry.Span) map[string]any {
	present := map[string]bool{}
	for _, sp := range spans {
		if sp.SpanID != "" {
			present[sp.SpanID] = true
		}
	}
	events := map[string][]map[string]any{}
	var otlpSpans []map[string]any
	for _, sp := range spans {
		if sp.SpanID == "" && present[sp.ParentID] {
			events[sp.ParentID] = append(events[sp.ParentID], map[string]any{
				"timeUnixNano": strconv.FormatInt(sp.Time.UnixNano(), 10),
				"name":         sp.Kind,
				"attributes":   otlpSpanAttrs(sp),
			})
		}
	}
	for _, sp := range spans {
		if sp.SpanID == "" && present[sp.ParentID] {
			continue // exported as an event on its parent
		}
		start := sp.Time.UnixNano()
		end := sp.Time.Add(time.Duration(sp.DurationSec * 1e9)).UnixNano()
		spanID := sp.SpanID
		if spanID == "" {
			spanID = telemetry.NewSpanID() // orphan point event: synthesize
		}
		o := map[string]any{
			"traceId":           sp.TraceID,
			"spanId":            spanID,
			"name":              otlpName(sp),
			"kind":              1, // SPAN_KIND_INTERNAL
			"startTimeUnixNano": strconv.FormatInt(start, 10),
			"endTimeUnixNano":   strconv.FormatInt(end, 10),
			"attributes":        otlpSpanAttrs(sp),
		}
		if sp.ParentID != "" {
			o["parentSpanId"] = sp.ParentID
		}
		if evs := events[sp.SpanID]; len(evs) > 0 {
			o["events"] = evs
		}
		otlpSpans = append(otlpSpans, o)
	}
	return map[string]any{"resourceSpans": []map[string]any{{
		"resource": map[string]any{
			"attributes": []map[string]any{
				otlpAttr("service.name", "gridenv"),
				otlpAttr("gridenv.node", "gridenv"),
			},
		},
		"scopeSpans": []map[string]any{{
			"scope": map[string]any{"name": "gridenv/telemetry"},
			"spans": otlpSpans,
		}},
	}}}
}

func otlpName(sp telemetry.Span) string {
	if sp.Name != "" {
		return sp.Kind + " " + sp.Name
	}
	return sp.Kind
}

func otlpAttr(key, value string) map[string]any {
	return map[string]any{"key": key, "value": map[string]any{"stringValue": value}}
}

func otlpSpanAttrs(sp telemetry.Span) []map[string]any {
	attrs := []map[string]any{}
	if sp.Detail != "" {
		attrs = append(attrs, otlpAttr("detail", sp.Detail))
	}
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, otlpAttr(k, sp.Attrs[k]))
	}
	return attrs
}
