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
	"strings"
	"sync/atomic"
)

// SpanContext identifies one span within one trace. The zero value is
// invalid and means "no trace in flight".
type SpanContext struct {
	TraceID string // 32 lower-case hex characters
	SpanID  string // 16 lower-case hex characters
}

// Valid reports whether the context carries a usable trace identity.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Traceparent renders the context as a W3C traceparent header value, or ""
// for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are accepted as long as the field shape matches; all-zero IDs are invalid.
func ParseTraceparent(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) {
		return SpanContext{}, false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
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

// NewTraceID returns a fresh 32-hex-character trace ID.
func NewTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], nextID())
	binary.BigEndian.PutUint64(b[8:], nextID())
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a fresh 16-hex-character span ID.
func NewSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], nextID())
	return hex.EncodeToString(b[:])
}
