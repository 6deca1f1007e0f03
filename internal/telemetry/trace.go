package telemetry

import (
	"sync"
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
// Span is how a trace is read: the ring keeps compact spanSlots, and
// TaskTrace.Spans builds Spans from them, IDs rendered in hex.
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

	mu   sync.Mutex
	root SpanContext // latched by the first StartRoot; orients point events
	// The ring's cap slots live in segments of traceSegment slots (the last
	// one shorter), each allocated when the ring first reaches it and never
	// copied: appended span n (from 0) lands in slot n % cap, with Seq n+1.
	segs   [][]spanSlot
	segBuf [2][]spanSlot // backs segs up to 2*traceSegment slots
	cap    int
	n      uint64    // spans ever appended
	ids    []TraceID // the trace IDs slots name; idBuf backs the first
	idBuf  [1]TraceID
	side   []sideEntry // in seq order: what a slot has no room for
}

// spanSlot is a span as the ring holds it, 88 bytes where a Span takes 144:
// Seq is its ring position, IDs are numbers, the trace ID an index into the
// trace's table, and a root span's Attrs wait beside the ring. Spans()
// builds the Span when someone reads the trace.
type spanSlot struct {
	unixNano           int64
	dur                float64
	kind, name, detail string
	span, parent       SpanID
	trace              uint8 // 0: none; traceSide: in the side entry; else ids[trace-1]
}

// traceSide marks a trace ID past the table's 254 entries, kept beside the
// ring in the span's sideEntry with its Attrs.
const traceSide = 255

type sideEntry struct {
	seq   uint64
	trace TraceID
	attrs map[string]string
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
	r.traceMu.Lock()
	t, spanCap := r.traces[taskID], r.spanCap
	r.traceMu.Unlock()
	if t != nil {
		return t
	}
	// Built outside the lock: an allocation may stop to assist the garbage
	// collector, and every trace lookup would wait behind it.
	t = &TaskTrace{reg: r, task: taskID, cap: spanCap}
	t.segs = t.segBuf[:0]
	t.ids = t.idBuf[:0]
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if known := r.traces[taskID]; known != nil {
		return known
	}
	if len(r.traces) < r.maxTraces { // room: the FIFO grows
		r.traceRing = append(r.traceRing, taskID)
	} else { // full: the newest takes the oldest's slot
		delete(r.traces, r.traceRing[r.traceHead])
		r.traceRing[r.traceHead] = taskID
		r.traceHead = (r.traceHead + 1) % len(r.traceRing)
	}
	r.traces[taskID] = t
	return t
}

// LookupTrace returns the task's trace or nil if none was ever recorded.
func (r *Registry) LookupTrace(taskID string) *TaskTrace {
	if r == nil {
		return nil
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
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
	remote, ok := ParseTraceparent(traceparent)
	sc := SpanContext{TraceID: remote.TraceID, SpanID: NewSpanID()}
	if !ok {
		sc.TraceID = NewTraceID()
	}
	t.mu.Lock()
	if !t.root.Valid() {
		t.root = sc
	}
	t.mu.Unlock()
	start := time.Now()
	return sc, func(detail string) float64 {
		d := time.Since(start).Seconds()
		t.record(start, spanSlot{kind: kind, name: name, detail: detail, dur: d, span: sc.SpanID, parent: remote.SpanID}, sc.TraceID, attrs)
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
		t.record(start, spanSlot{kind: kind, name: name, detail: detail, dur: d, span: sc.SpanID, parent: parent.SpanID}, sc.TraceID, nil)
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
	t.record(time.Now(), spanSlot{kind: kind, name: name, detail: detail, parent: parent.SpanID}, parent.TraceID, nil)
}

// record attaches orphan point events to the root span, appends the span to
// the ring as the next seq, and mirrors it onto the event bus.
func (t *TaskTrace) record(at time.Time, s spanSlot, trace TraceID, attrs map[string]string) {
	s.unixNano = at.UnixNano()
	t.mu.Lock()
	if trace == (TraceID{}) && t.root.Valid() {
		trace, s.parent = t.root.TraceID, t.root.SpanID
	}
	s.trace = t.traceIndex(trace)
	if attrs != nil || s.trace == traceSide {
		t.addSide(sideEntry{seq: t.n + 1, trace: trace, attrs: attrs})
	}
	slot := int(t.n % uint64(t.cap))
	seg := slot / traceSegment
	if seg == len(t.segs) { // the ring's first pass reaches a new segment
		t.segs = append(t.segs, make([]spanSlot, min(traceSegment, t.cap-slot)))
	}
	t.segs[seg][slot%traceSegment] = s
	t.n++
	t.mu.Unlock()
	// Mirror onto the event bus outside the ring lock: a publish never holds
	// up a concurrent Spans() reader.
	t.reg.PublishEvent(Event{Task: t.task, Time: at, Kind: s.kind, Name: s.name, Detail: s.detail})
}

// traceIndex returns the slot's index for a trace ID, adding the ID to the
// table on first sight, or traceSide once the table is full. Callers hold
// t.mu.
func (t *TaskTrace) traceIndex(id TraceID) uint8 {
	if id == (TraceID{}) {
		return 0
	}
	for i, known := range t.ids {
		if known == id {
			return uint8(i + 1)
		}
	}
	if len(t.ids) == traceSide-1 {
		return traceSide
	}
	t.ids = append(t.ids, id)
	return uint8(len(t.ids))
}

// addSide appends a side entry, first dropping those whose spans the ring
// has overwritten. Callers hold t.mu.
func (t *TaskTrace) addSide(e sideEntry) {
	gone := 0
	for gone < len(t.side) && t.side[gone].seq+uint64(t.cap) <= e.seq {
		gone++
	}
	clear(t.side[:gone])
	t.side = append(t.side[gone:], e)
}

// Spans returns the retained spans in seq order (oldest first), built from
// the ring's slots.
func (t *TaskTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	held := t.held()
	out := make([]Span, held)
	traceIDs := make([]string, len(t.ids)) // the table in hex, once per read
	for i, id := range t.ids {
		traceIDs[i] = id.String()
	}
	side := t.side
	for k := range out {
		seq := t.n - held + uint64(k) + 1
		slot := int((seq - 1) % uint64(t.cap))
		s := &t.segs[slot/traceSegment][slot%traceSegment]
		sp := Span{
			Seq: seq, Time: time.Unix(0, s.unixNano), Kind: s.kind, Name: s.name, Detail: s.detail,
			SpanID: s.span.String(), ParentID: s.parent.String(), DurationSec: s.dur,
		}
		for len(side) > 0 && side[0].seq < seq {
			side = side[1:]
		}
		if len(side) > 0 && side[0].seq == seq {
			sp.Attrs = side[0].attrs
			if s.trace == traceSide {
				sp.TraceID = side[0].trace.String()
			}
		}
		if s.trace != 0 && s.trace != traceSide {
			sp.TraceID = traceIDs[s.trace-1]
		}
		out[k] = sp
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
	return t.n - t.held()
}
