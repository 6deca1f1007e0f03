package telemetry

// Trace context: the identity a span tree carries across goroutines, engine
// stages, and from an HTTP client into the task it submits. The wire form is the W3C traceparent header
// (version 00, sampled flag always 01):
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// A SpanContext travels through context.Context between layers (engine →
// coordination → planner) and in through the traceparent HTTP header on a
// submit (internal/httpapi).

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// TraceID identifies one distributed trace: 16 bytes, the 32 hex characters
// of the wire form. The zero value is invalid and means "no trace".
type TraceID [16]byte

// SpanID identifies one span: the 16 hex characters of the wire form read as
// a big-endian number. Zero is invalid and means "no span".
type SpanID uint64

// String renders the ID as 32 lower-case hex characters, or "" for the zero
// ID. IDs stay numbers inside the process; this is where they leave it.
func (id TraceID) String() string {
	if id == (TraceID{}) {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// String renders the ID as 16 lower-case hex characters, or "" for zero.
func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// SpanContext identifies one span within one trace. The zero value is
// invalid and means "no trace in flight".
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a usable trace identity.
func (sc SpanContext) Valid() bool { return sc.TraceID != TraceID{} && sc.SpanID != 0 }

// Traceparent renders the context as a W3C traceparent header value, or ""
// for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value: a two-character
// version, 32 hex characters of trace ID and 16 of span ID, then the flags
// field and anything after it. Unknown versions are accepted as long as the
// field shape matches, hex is read in either case, and all-zero IDs are
// invalid.
func ParseTraceparent(s string) (SpanContext, bool) {
	s = strings.TrimSpace(s)
	if len(s) < 53 || s[0] == '-' || s[1] == '-' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	var sc SpanContext
	var span [8]byte
	if !decodeHex(sc.TraceID[:], s[3:35]) || !decodeHex(span[:], s[36:52]) {
		return SpanContext{}, false
	}
	sc.SpanID = SpanID(binary.BigEndian.Uint64(span[:]))
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// decodeHex fills dst from the 2*len(dst) hex characters of src.
func decodeHex(dst []byte, src string) bool {
	if len(src) != 2*len(dst) {
		return false
	}
	_, err := hex.Decode(dst, []byte(src)) // at most 32 bytes: on the stack
	return err == nil
}

type spanContextKey struct{}

// ContextWithSpan returns a context carrying the span context, for
// propagation across layer boundaries without widening every signature.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanContextKey{}, sc)
}

// SpanFromContext extracts the span context installed by ContextWithSpan,
// or the zero SpanContext when none is present.
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanContextKey{}).(SpanContext)
	return sc
}

// ID generation: one crypto/rand seed per process, then a splitmix64 walk.
// Each new ID costs one atomic add and a small mix — no syscall, which keeps
// span creation cheap enough for enactment hot paths.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(0x9e3779b97f4a7c15)
	}
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15) // golden-ratio increment (splitmix64)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // all-zero IDs are invalid on the wire
	}
	return x
}

// NewTraceID returns a fresh trace ID.
func NewTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], nextID())
	binary.BigEndian.PutUint64(id[8:], nextID())
	return id
}

// NewSpanID returns a fresh span ID.
func NewSpanID() SpanID { return SpanID(nextID()) }
