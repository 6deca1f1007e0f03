// Package telemetry is the measurement side of the Figure 1 monitoring
// service: a dependency-free, concurrency-safe metrics registry (counters,
// gauges, histograms with fixed buckets) plus per-task structured event
// traces (ring-buffered spans). A *Registry is threaded through
// core.Environment and the hot layers record into it; the httpapi exposes
// snapshots at GET /api/v1/metrics and GET /api/v1/tasks/{id}/trace.
//
// Every method is safe on a nil receiver and does nothing, so instrumented
// code never needs to guard against a missing registry — an un-instrumented
// run costs a nil check per call site.
//
// Metric names are dot-separated, lower-case, recorded in OBSERVABILITY.md.
package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments, task traces, and the event bus. Create
// with New; the zero value is not usable (use a nil *Registry for a no-op).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// Task traces have a lock of their own: creating one must not stall the
	// by-name instrument lookups that read mu. It is a plain Mutex because
	// every task creates a trace: behind an RWMutex's write lock the lookups
	// queued up (enact_sat's mutex profile). traceRing is the FIFO of the
	// live traces' task IDs, for eviction: it grows to maxTraces, then the
	// newest overwrites the oldest, at traceHead.
	traceMu   sync.Mutex
	traces    map[string]*TaskTrace
	traceRing []string
	traceHead int
	spanCap   int
	maxTraces int

	// Event bus state (see bus.go). nsubs shadows len(subs) so the publish
	// hot path can skip the lock entirely while nobody is listening.
	subMu    sync.RWMutex
	subs     []*Subscription
	nsubs    atomic.Int32
	eventSeq atomic.Uint64

	// SSE resume ring (see bus.go): retains recent events so a reconnecting
	// subscriber can replay from its Last-Event-ID. replayOn latches true on
	// the first-ever Subscribe; until then publishes skip the ring entirely.
	replayOn    atomic.Bool
	replayMu    sync.Mutex
	replayBuf   []Event
	replayStart int
	replayN     int

	mEventsPublished *Counter
	mEventsDropped   *Counter
}

// Default capacity limits: spans retained per task trace and distinct task
// traces retained before the oldest is evicted.
const (
	DefaultSpanCap   = 2048
	DefaultMaxTraces = 1024
)

// New returns an empty registry with the default trace capacities.
func New() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		traces:     make(map[string]*TaskTrace),
		spanCap:    DefaultSpanCap,
		maxTraces:  DefaultMaxTraces,
	}
	// Resolved once so PublishEvent pays an atomic add, not a map lookup.
	r.mEventsPublished = r.Counter("telemetry.events.published")
	r.mEventsDropped = r.Counter("telemetry.events.dropped")
	return r
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds must be sorted ascending; an overflow
// bucket is implicit). Later calls ignore bounds and return the existing
// histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// ---------------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(floatBits(v))
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Nil-safe.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS

	exMu    sync.Mutex // guards the most recent traced observation, kept in place
	exTrace TraceID
	exValue float64
}

// Exemplar ties one histogram observation back to the trace that produced
// it, in the OpenMetrics sense: a scraped latency bucket can be drilled into
// the task trace via the trace ID.
type Exemplar struct {
	TraceID string  `json:"traceId"`
	Value   float64 `json:"value"`
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// ObserveTraced records one sample and, when trace is valid, remembers it as
// the histogram's latest exemplar.
func (h *Histogram) ObserveTraced(v float64, trace TraceID) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace != (TraceID{}) {
		h.exMu.Lock()
		h.exTrace, h.exValue = trace, v
		h.exMu.Unlock()
	}
}

// Exemplar returns the latest traced observation, or nil if none exists.
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	trace, v := h.exTrace, h.exValue
	h.exMu.Unlock()
	if trace == (TraceID{}) {
		return nil
	}
	return &Exemplar{TraceID: trace.String(), Value: v}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return bitsFloat(h.sumBits.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// ---------------------------------------------------------------------------
// Snapshot

// Snapshot is a point-in-time JSON-friendly view of every instrument.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state. Buckets are non-cumulative;
// the final bucket has Le "+Inf".
type HistogramSnapshot struct {
	Count    int64     `json:"count"`
	Sum      float64   `json:"sum"`
	Buckets  []Bucket  `json:"buckets"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Bucket is one histogram bucket: the count of samples at or below Le and
// above the previous bound.
type Bucket struct {
	Le    string `json:"le"` // upper bound, "+Inf" for the overflow bucket
	Count int64  `json:"count"`
}

// Snapshot captures the current value of every instrument. Safe on nil
// (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Exemplar: h.Exemplar()}
		for i := range h.counts {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: h.counts[i].Load()})
		}
		s.Histograms[name] = hs
	}
	return s
}
