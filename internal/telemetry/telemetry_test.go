package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := New()
	r.Counter("a.b").Add(3)
	r.Counter("a.b").Inc()
	if got := r.Counter("a.b").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	r.Gauge("g").Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Errorf("gauge = %g, want 2.5", got)
	}
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Errorf("histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["h"]
	want := []int64{2, 1, 1} // le 1 (0.5 and 1), le 10 (5), +Inf (100)
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le %s) = %d, want %d", i, b.Le, b.Count, want[i])
		}
	}
	if hs.Buckets[2].Le != "+Inf" {
		t.Errorf("overflow bucket le = %q", hs.Buckets[2].Le)
	}
	if snap.Counters["a.b"] != 4 || snap.Gauges["g"] != 2.5 {
		t.Errorf("snapshot = %+v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestHistogramReuseIgnoresBounds(t *testing.T) {
	r := New()
	h1 := r.Histogram("x", []float64{1, 2})
	h2 := r.Histogram("x", []float64{5})
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h", nil).Observe(1)
	r.Counter("c").Add(5)
	r.TaskTrace("t").Span("k", "n", "d")
	if tr := r.LookupTrace("t"); tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil trace not empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{100, 500}).Observe(float64(i))
				r.TaskTrace("task").Span("k", "", "")
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestTraceOrderingAndRing(t *testing.T) {
	r := New()
	r.spanCap = 8 // small ring to exercise wraparound
	tr := r.TaskTrace("T1")
	for i := 0; i < 20; i++ {
		tr.Span("fire", fmt.Sprintf("a%d", i), "")
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("retained %d spans, want 8", len(spans))
	}
	for i, s := range spans {
		if want := uint64(13 + i); s.Seq != want {
			t.Errorf("span %d seq = %d, want %d", i, s.Seq, want)
		}
	}
	if tr.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", tr.Dropped())
	}
	if r.LookupTrace("nope") != nil {
		t.Error("LookupTrace invented a trace")
	}
	if r.LookupTrace("T1") != tr {
		t.Error("LookupTrace missed the recorded trace")
	}
}

func TestTraceEviction(t *testing.T) {
	r := New()
	r.maxTraces = 3
	for i := 0; i < 5; i++ {
		r.TaskTrace(fmt.Sprintf("T%d", i)).Span("k", "", "")
	}
	if r.LookupTrace("T0") != nil || r.LookupTrace("T1") != nil {
		t.Error("oldest traces not evicted")
	}
	for i := 2; i < 5; i++ {
		if r.LookupTrace(fmt.Sprintf("T%d", i)) == nil {
			t.Errorf("trace T%d evicted too early", i)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkSpan(b *testing.B) {
	r := New()
	tr := r.TaskTrace("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Span("fire", "activity", "detail")
	}
}
