package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node in a task's trace tree. Two shapes share the type:
//
//   - Duration spans (SpanID set, DurationSec > 0 or explicitly recorded):
//     a stage with a start time and a measured length — the task root,
//     queue_wait, enact, journal_commit, plan. Created
//     with StartRoot/Begin and recorded when the returned end func runs;
//     Time is the start instant.
//   - Point events (SpanID empty): the flat events the trace always carried
//     (dispatch, complete, retry, gp-generation, ...). They attach to a
//     parent duration span via ParentID and carry no duration.
//
// TraceID groups every span of one distributed trace; ParentID links
// children to parents (a root span's ParentID names the remote span that
// caused it, e.g. the client's span from its traceparent). Seq orders spans
// within a task; the ring buffer keeps the most recent DefaultSpanCap spans.
type Span struct {
	Seq         uint64            `json:"seq"`
	Time        time.Time         `json:"time"`
	Kind        string            `json:"kind"`
	Name        string            `json:"name,omitempty"`
	Detail      string            `json:"detail,omitempty"`
	TraceID     string            `json:"traceId,omitempty"`
	SpanID      string            `json:"spanId,omitempty"`
	ParentID    string            `json:"parentId,omitempty"`
	DurationSec float64           `json:"durationSec,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TaskTrace is a bounded, concurrency-safe span log for one task. Obtain
// through Registry.TaskTrace; all methods are safe on a nil receiver.
type TaskTrace struct {
	reg  *Registry // owning registry; spans are mirrored onto its event bus
	task string

	seq atomic.Uint64

	mu   sync.Mutex
	root SpanContext // latched by the first StartRoot; orients point events
	// The ring's cap slots live in segments of traceSegment spans (the last
	// one shorter), each allocated when the ring first reaches it and never
	// copied: appended span n lands in slot n % cap.
	segs   [][]Span
	segBuf [2][]Span // backs segs up to 2*traceSegment spans
	cap    int
	n      uint64 // spans ever appended
}

// traceSegment is the ring's allocation unit: a Figure-10 enactment records
// about 98 spans, so one task's trace is two segments.
const traceSegment = 64

// nopEnd is the end func returned for nil traces, so callers never branch.
var nopEnd = func(string) float64 { return 0 }

// TaskTrace returns the trace for the task, creating it on first use. When
// the registry already tracks its maximum number of tasks, the oldest trace
// is evicted. Returns nil (a no-op trace) on a nil registry.
func (r *Registry) TaskTrace(taskID string) *TaskTrace {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.traces[taskID]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.traces[taskID]; t != nil {
		return t
	}
	for len(r.traceOrder) >= r.maxTraces {
		oldest := r.traceOrder[0]
		r.traceOrder = r.traceOrder[1:]
		delete(r.traces, oldest)
	}
	t = &TaskTrace{reg: r, task: taskID, cap: r.spanCap}
	t.segs = t.segBuf[:0]
	r.traces[taskID] = t
	r.traceOrder = append(r.traceOrder, taskID)
	return t
}

// LookupTrace returns the task's trace or nil if none was ever recorded.
func (r *Registry) LookupTrace(taskID string) *TaskTrace {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.traces[taskID]
}

// StartRoot opens the task's root duration span. When traceparent carries a
// valid W3C context (a client's traceparent, a parent task), the trace ID is
// inherited and the remote span becomes the root's parent, joining this
// node's segment to the distributed trace; otherwise a fresh trace ID is
// minted. The first root latches the trace context that orients point
// events. The returned end func records the span with the given detail and
// returns the duration in seconds.
func (t *TaskTrace) StartRoot(kind, name, traceparent string, attrs map[string]string) (SpanContext, func(detail string) float64) {
	if t == nil {
		return SpanContext{}, nopEnd
	}
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	parentID := ""
	if remote, ok := ParseTraceparent(traceparent); ok {
		sc.TraceID = remote.TraceID
		parentID = remote.SpanID
	}
	t.mu.Lock()
	if !t.root.Valid() {
		t.root = sc
	}
	t.mu.Unlock()
	start := time.Now()
	return sc, func(detail string) float64 {
		d := time.Since(start).Seconds()
		t.record(Span{
			Time: start, Kind: kind, Name: name, Detail: detail,
			TraceID: sc.TraceID, SpanID: sc.SpanID, ParentID: parentID,
			DurationSec: d, Attrs: attrs,
		})
		return d
	}
}

// Begin opens a child duration span under parent (or under the latched root
// when parent is the zero SpanContext). The returned end func records the
// span and returns the duration in seconds.
func (t *TaskTrace) Begin(parent SpanContext, kind, name string) (SpanContext, func(detail string) float64) {
	if t == nil {
		return SpanContext{}, nopEnd
	}
	if !parent.Valid() {
		t.mu.Lock()
		parent = t.root
		t.mu.Unlock()
	}
	// No trace ID is minted for a parentless span: record() orients it under
	// the latched root, and a span with no root to join stays unlabelled
	// rather than starting a one-span trace of its own.
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	start := time.Now()
	return sc, func(detail string) float64 {
		d := time.Since(start).Seconds()
		t.record(Span{
			Time: start, Kind: kind, Name: name, Detail: detail,
			TraceID: sc.TraceID, SpanID: sc.SpanID, ParentID: parent.SpanID,
			DurationSec: d,
		})
		return d
	}
}

// Context returns the trace context latched by the first StartRoot, or the
// zero SpanContext when no root span has been opened.
func (t *TaskTrace) Context() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// Span appends one point event to the trace, parented under the root span:
// the zero-parent case of SpanUnder.
func (t *TaskTrace) Span(kind, name, detail string) {
	t.SpanUnder(SpanContext{}, kind, name, detail)
}

// SpanUnder appends one point event parented under an explicit duration
// span (e.g. gp-generation events under their plan span); record orients a
// zero parent under the latched root.
func (t *TaskTrace) SpanUnder(parent SpanContext, kind, name, detail string) {
	if t == nil {
		return
	}
	t.record(Span{
		Time: time.Now(), Kind: kind, Name: name, Detail: detail,
		TraceID: parent.TraceID, ParentID: parent.SpanID,
	})
}

// record assigns the sequence number, attaches orphan point events to the
// root span, appends to the ring, and mirrors onto the event bus.
func (t *TaskTrace) record(s Span) {
	s.Seq = t.seq.Add(1)
	t.mu.Lock()
	if s.TraceID == "" && t.root.Valid() {
		s.TraceID = t.root.TraceID
		s.ParentID = t.root.SpanID
	}
	slot := int(t.n % uint64(t.cap))
	seg := slot / traceSegment
	if seg == len(t.segs) { // the ring's first pass reaches a new segment
		t.segs = append(t.segs, make([]Span, min(traceSegment, t.cap-slot)))
	}
	t.segs[seg][slot%traceSegment] = s
	t.n++
	t.mu.Unlock()
	// Mirror onto the event bus outside the ring lock: a publish never holds
	// up a concurrent Spans() reader.
	t.reg.PublishEvent(Event{Task: t.task, Time: s.Time, Kind: s.Kind, Name: s.Name, Detail: s.Detail})
}

// Spans returns the retained spans in seq order (oldest first).
func (t *TaskTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.held()
	out := make([]Span, 0, held)
	for i := t.n - held; i < t.n; i++ {
		slot := int(i % uint64(t.cap))
		out = append(out, t.segs[slot/traceSegment][slot%traceSegment])
	}
	return out
}

// held is how many spans the ring retains: the newest cap of those appended.
func (t *TaskTrace) held() uint64 { return min(t.n, uint64(t.cap)) }

// Dropped reports how many spans the ring buffer has overwritten.
func (t *TaskTrace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq.Load() - t.held()
}
