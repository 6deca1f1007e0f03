package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordSpan appends s as the ring would have recorded it, IDs in their hex
// wire form; Seq is the ring's to assign.
func recordSpan(t testing.TB, tr *TaskTrace, s Span) {
	t.Helper()
	var trace TraceID
	if s.TraceID != "" && !decodeHex(trace[:], s.TraceID) {
		t.Fatalf("bad trace ID %q", s.TraceID)
	}
	spanID := func(hex string) SpanID {
		var b [8]byte
		if hex != "" && !decodeHex(b[:], hex) {
			t.Fatalf("bad span ID %q", hex)
		}
		return SpanID(binary.BigEndian.Uint64(b[:]))
	}
	tr.record(s.Time, spanSlot{
		kind: s.Kind, name: s.Name, detail: s.Detail, dur: s.DurationSec,
		span: spanID(s.SpanID), parent: spanID(s.ParentID),
	}, trace, s.Attrs)
}

func TestSpanSlotIs88Bytes(t *testing.T) {
	if got := reflect.TypeOf(spanSlot{}).Size(); got != 88 {
		t.Errorf("spanSlot is %d bytes, want 88", got)
	}
}

// TestSpanPackRoundTrip records spans of every shape the engine and planner
// produce and reads them back: every exported field survives the slot.
func TestSpanPackRoundTrip(t *testing.T) {
	remote, ok := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01")
	if !ok {
		t.Fatal("traceparent rejected")
	}
	second, recovered := NewTraceID(), NewTraceID()
	root, plan, reRoot := NewSpanID(), NewSpanID(), NewSpanID()
	at := func(i int) time.Time { return time.Unix(1_700_000_000+int64(i), 123_456_789+int64(i)) }
	want := []Span{
		// A parentless span recorded before any root.
		{Time: at(0), Kind: "queue", Detail: "admitted at position 3 (normal priority)"},
		// The root, under the remote parent a traceparent named.
		{Time: at(1), Kind: "task", Name: "T1", Detail: "succeeded", TraceID: remote.TraceID.String(),
			SpanID: root.String(), ParentID: remote.SpanID.String(), DurationSec: 1.25,
			Attrs: map[string]string{"request.id": "req-1"}},
		{Time: at(2), Kind: "dispatch", Name: "POD", Detail: "ac-01", TraceID: remote.TraceID.String(), ParentID: root.String()},
		// A span under a second trace ID, and a point event under it.
		{Time: at(3), Kind: "plan", Name: "plan-000001", TraceID: second.String(), SpanID: plan.String(),
			ParentID: NewSpanID().String(), DurationSec: 0.000001},
		{Time: at(4), Kind: "gp-generation", Name: "gen-0", TraceID: second.String(), ParentID: plan.String()},
		// A recovered re-root: a second root with attrs of its own.
		{Time: at(5), Kind: "task", Name: "T1", Detail: "succeeded", TraceID: recovered.String(),
			SpanID: reRoot.String(), DurationSec: 2, Attrs: map[string]string{"recovered": "true"}},
	}
	tr := New().TaskTrace("T1")
	for i := range want {
		recordSpan(t, tr, want[i])
		want[i].Seq = uint64(i + 1)
	}
	got := tr.Spans()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, want)
	}
	for i, s := range got {
		if s.Time.Location() != time.Local || s.Time.Nanosecond() != want[i].Time.Nanosecond() {
			t.Errorf("span %d time %v, want %v in the local zone", i, s.Time, want[i].Time)
		}
	}
}

// TestSpanTraceIDsBeyondTheTable gives every span a trace ID of its own, past
// the slot's 254-entry table: the rest ride beside the ring, and what the
// ring overwrites leaves with it.
func TestSpanTraceIDsBeyondTheTable(t *testing.T) {
	for _, capacity := range []int{2 * traceSegment, 8 * traceSegment} {
		r := New()
		r.SetTraceCapacity(capacity, 0)
		tr := r.TaskTrace("T-many")
		var ref flatRing
		for n := 1; n <= 600; n++ {
			s := Span{Time: time.Unix(0, int64(n)), Kind: "fire", TraceID: NewTraceID().String(), ParentID: NewSpanID().String()}
			if n%7 == 0 {
				s.Attrs = map[string]string{"n": fmt.Sprint(n)}
			}
			recordSpan(t, tr, s)
			s.Seq = uint64(n)
			ref.add(s, capacity)
		}
		if got, want := tr.Spans(), ref.spans(); !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d: %d spans read back, want %d, or not the same", capacity, len(got), len(want))
		}
		if len(tr.ids) != traceSide-1 || len(tr.side) > capacity {
			t.Errorf("capacity %d: %d table entries and %d side entries", capacity, len(tr.ids), len(tr.side))
		}
	}
}

// TestTraceGolden pins the bytes GET /api/v1/tasks/{id}/trace writes for a
// trace of fixed-time spans: taskId, traceId, every span field, and the drop
// count. testdata/trace.golden.json was written by the ring of 144-byte
// Spans with hex-string IDs; times render in UTC so the file does not depend
// on the zone the test runs in.
func TestTraceGolden(t *testing.T) {
	const (
		traceA = "4bf92f3577b34da6a3ce929d0e0e4736"
		traceB = "0af7651916cd43dd8448eb211c80319c"
		traceC = "00f067aa0ba902b7a3ce929d0e0e4736"
		remote = "b7ad6b7169203331"
		rootA  = "00f067aa0ba902b7"
		plan   = "53995c3f42cd8ad8"
		rootC  = "e457b5a2e4d86bd1"
	)
	r := New()
	r.SetTraceCapacity(8, 0)
	tr := r.TaskTrace("T-golden")
	at := func(i int) time.Time { return time.Unix(1_700_000_000+int64(i), int64(i)*100_000_001+7) }
	add := func(s Span) { recordSpan(t, tr, s) }
	add(Span{Time: at(0), Kind: "fire", Name: "filler-0"})
	add(Span{Time: at(1), Kind: "fire", Name: "filler-1", Detail: "dropped"})
	add(Span{Time: at(2), Kind: "queue", Detail: "admitted at position 1 (normal priority)"})
	root, ok := ParseTraceparent("00-" + traceA + "-" + rootA + "-01")
	if !ok {
		t.Fatal("root context rejected")
	}
	tr.root = root // as StartRoot latches it
	add(Span{Time: at(3), Kind: "dispatch", Name: "POD", Detail: "ac-01"})
	add(Span{Time: at(4), Kind: "journal_commit", Name: "accepted", Detail: "write-ahead accepted record",
		TraceID: traceA, SpanID: "1111111111111111", ParentID: rootA, DurationSec: 0.000123456})
	add(Span{Time: at(5), Kind: "plan", Name: "plan-000001", Detail: "40 evaluations over 2 generations",
		TraceID: traceB, SpanID: plan, ParentID: "2222222222222222", DurationSec: 0.25})
	add(Span{Time: at(6), Kind: "gp-generation", Name: "gen-0", Detail: "best 1.0000", TraceID: traceB, ParentID: plan})
	add(Span{Time: at(7), Kind: "task", Name: "T-golden", Detail: "succeeded",
		TraceID: traceA, SpanID: rootA, ParentID: remote, DurationSec: 1.5, Attrs: map[string]string{"request.id": "req-1"}})
	add(Span{Time: at(8), Kind: "task", Name: "T-golden", Detail: "succeeded",
		TraceID: traceC, SpanID: rootC, DurationSec: 2, Attrs: map[string]string{"recovered": "true"}})
	add(Span{Time: at(9), Kind: "recovered", Detail: "re-enqueued", TraceID: traceC, ParentID: rootC})

	spans := tr.Spans()
	for i := range spans {
		spans[i].Time = spans[i].Time.UTC()
	}
	// The endpoint's traceView, encoded as its writeJSON does.
	var got bytes.Buffer
	if err := json.NewEncoder(&got).Encode(struct {
		TaskID  string `json:"taskId"`
		TraceID string `json:"traceId,omitempty"`
		Spans   []Span `json:"spans"`
		Dropped uint64 `json:"dropped"`
	}{"T-golden", tr.Context().TraceID.String(), spans, tr.Dropped()}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace JSON moved:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// TestSpanRecordAllocatesNothing: a point event into a segment the ring
// already holds costs no allocation.
func TestSpanRecordAllocatesNothing(t *testing.T) {
	r := New()
	r.SetTraceCapacity(traceSegment, 0)
	tr := r.TaskTrace("T-alloc")
	tr.StartRoot("task", "T-alloc", "", map[string]string{"request.id": "r"})
	tr.Span("queue", "", "admitted") // allocates the segment
	if n := testing.AllocsPerRun(500, func() { tr.Span("dispatch", "POD", "ac-01") }); n != 0 {
		t.Errorf("a point event allocates %.0f times, want 0", n)
	}
}

// TestTraceCreationBesideInstrumentLookups creates and evicts traces while
// other goroutines look instruments up by name and read traces back: under
// -race it pins the two locks apart, and at the end the FIFO names exactly
// the maxTraces traces the registry holds.
func TestTraceCreationBesideInstrumentLookups(t *testing.T) {
	r := New()
	r.SetTraceCapacity(0, 16)
	const creators, each = 3, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var lookups sync.WaitGroup
	for i := 0; i < 2; i++ {
		lookups.Add(1)
		go func(i int) {
			defer lookups.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c.%d", n%8)).Inc()
				r.Histogram("h", []float64{1}).ObserveTraced(0.5, NewTraceID())
				r.LookupTrace(fmt.Sprintf("T-%d-%d", i, n%each)).Spans()
			}
		}(i)
	}
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.TaskTrace(fmt.Sprintf("T-%d-%d", c, i)).Span("queue", "", "admitted")
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	lookups.Wait()
	if n := len(r.traces); n != 16 {
		t.Fatalf("%d traces retained, want 16", n)
	}
	inRing := map[string]bool{}
	for i, id := range r.traceRing {
		if r.traces[id] == nil || inRing[id] {
			t.Fatalf("FIFO slot %d names %q, which the registry does not hold once", i, id)
		}
		inRing[id] = true
	}
}

// parseTraceparentBySplit is the field-splitting parser the fixed-offset one
// replaced, kept as its oracle.
func parseTraceparentBySplit(s string) (string, string, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	var tr [16]byte
	var sp [8]byte
	if !decodeHex(tr[:], parts[1]) || !decodeHex(sp[:], parts[2]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return strings.ToLower(parts[1]), strings.ToLower(parts[2]), true
}

// FuzzTraceparent holds ParseTraceparent to the splitting parser on any
// header, and checks that what it accepts renders back to itself:
// ParseTraceparent(sc.Traceparent()) == sc.
func FuzzTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"cc-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01-extra",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7- ",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"-0-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdefg123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		trace, span, okSplit := parseTraceparentBySplit(s)
		if ok != okSplit || sc.TraceID.String() != trace || sc.SpanID.String() != span {
			t.Fatalf("ParseTraceparent(%q) = %v %v, splitting parser %s %s %v", s, sc, ok, trace, span, okSplit)
		}
		if !ok {
			return
		}
		if back, ok := ParseTraceparent(sc.Traceparent()); !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %v %v, want %v", sc.Traceparent(), back, ok, sc)
		}
	})
}

func TestParseTraceparentAllocatesNothing(t *testing.T) {
	h := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if n := testing.AllocsPerRun(100, func() { ParseTraceparent(h) }); n != 0 {
		t.Errorf("ParseTraceparent allocates %.0f times, want 0", n)
	}
}
