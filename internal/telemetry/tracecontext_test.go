package telemetry

import (
	"context"
	"strings"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	sc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", valid)
	}
	if sc.TraceID.String() != "0123456789abcdef0123456789abcdef" || sc.SpanID.String() != "0123456789abcdef" {
		t.Fatalf("parsed %+v", sc)
	}
	if got := sc.Traceparent(); got != valid {
		t.Fatalf("round trip = %q, want %q", got, valid)
	}

	for _, bad := range []string{
		"",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef",    // missing flags
		"00-00000000000000000000000000000000-0123456789abcdef-01", // all-zero trace
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // all-zero span
		"00-0123456789abcdef0123456789abcde-0123456789abcdef-01",  // short trace
		"00-0123456789abcdefg123456789abcdef-0123456789abcdef-01", // non-hex
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", bad)
		}
	}

	// The parser is deliberately lenient: unknown versions pass as long as
	// the shape matches, and uppercase hex normalizes to lower.
	upper := "cc-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01"
	sc, ok = ParseTraceparent(upper)
	if !ok || sc.TraceID.String() != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("lenient parse of %q = %+v, %v", upper, sc, ok)
	}
}

func TestNewIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tr, sp := NewTraceID().String(), NewSpanID().String()
		if len(tr) != 32 || len(sp) != 16 {
			t.Fatalf("id lengths %d/%d, want 32/16", len(tr), len(sp))
		}
		if strings.Trim(tr, "0") == "" || strings.Trim(sp, "0") == "" {
			t.Fatal("generated an all-zero (invalid) ID")
		}
		if seen[tr] || seen[sp] {
			t.Fatal("duplicate ID within 1000 draws")
		}
		seen[tr], seen[sp] = true, true
	}
}

func TestContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	ctx := ContextWithSpan(context.Background(), sc)
	if got := SpanFromContext(ctx); got != sc {
		t.Fatalf("SpanFromContext = %+v, want %+v", got, sc)
	}
	if got := SpanFromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context yielded a valid span context %+v", got)
	}
}

func TestStartRootInheritsTraceparent(t *testing.T) {
	reg := New()
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr := reg.TaskTrace("T1")
	sc, end := tr.StartRoot("task", "T1", remote.Traceparent(), nil)
	if sc.TraceID != remote.TraceID {
		t.Fatalf("root trace ID %q, want inherited %q", sc.TraceID, remote.TraceID)
	}
	end("done")
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want 1", len(spans))
	}
	if spans[0].ParentID != remote.SpanID.String() {
		t.Fatalf("root ParentID %q, want remote span %q", spans[0].ParentID, remote.SpanID)
	}
	if spans[0].DurationSec <= 0 {
		t.Fatalf("root DurationSec = %v, want > 0", spans[0].DurationSec)
	}
	if got := tr.Context(); got != sc {
		t.Fatalf("latched context %+v, want %+v", got, sc)
	}
}

func TestBeginAndPointEventsParentUnderRoot(t *testing.T) {
	reg := New()
	tr := reg.TaskTrace("T2")
	root, endRoot := tr.StartRoot("task", "T2", "", nil)

	// Begin with the zero parent falls back to the latched root.
	child, endChild := tr.Begin(SpanContext{}, "queue_wait", "T2")
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace %q, want %q", child.TraceID, root.TraceID)
	}
	endChild("dequeued")

	// Point events parent under the root too.
	tr.Span("dispatch", "svc", "")
	// ...and under an explicit parent via SpanUnder.
	tr.SpanUnder(child, "gp-generation", "g0", "")
	endRoot("succeeded")

	byKind := map[string]Span{}
	for _, s := range tr.Spans() {
		byKind[s.Kind] = s
	}
	if got := byKind["queue_wait"].ParentID; got != root.SpanID.String() {
		t.Errorf("queue_wait parent %q, want root %q", got, root.SpanID)
	}
	if got := byKind["dispatch"].ParentID; got != root.SpanID.String() {
		t.Errorf("dispatch parent %q, want root %q", got, root.SpanID)
	}
	if got := byKind["gp-generation"].ParentID; got != child.SpanID.String() {
		t.Errorf("gp-generation parent %q, want child %q", got, child.SpanID)
	}
	for kind, s := range byKind {
		if s.TraceID != root.TraceID.String() {
			t.Errorf("%s trace %q, want %q", kind, s.TraceID, root.TraceID)
		}
	}
}
