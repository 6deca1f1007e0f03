package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// TestRingOverwriteDroppedExact pins the dropped-span accounting: a trace
// reports zero drops until the ring is full, then exactly one additional
// drop per overwriting span.
func TestRingOverwriteDroppedExact(t *testing.T) {
	r := New()
	r.spanCap = 4
	tr := r.TaskTrace("T-exact")
	for i := 0; i < 4; i++ {
		tr.Span("fire", fmt.Sprintf("a%d", i), "")
		if tr.Dropped() != 0 {
			t.Fatalf("dropped = %d before the ring filled (span %d)", tr.Dropped(), i)
		}
	}
	for i := 0; i < 10; i++ {
		tr.Span("fire", fmt.Sprintf("b%d", i), "")
		if got, want := tr.Dropped(), uint64(i+1); got != want {
			t.Fatalf("after overwrite %d: dropped = %d, want %d", i, got, want)
		}
		if n := len(tr.Spans()); n != 4 {
			t.Fatalf("retained %d spans, want 4", n)
		}
	}
	// The retained window is the newest 4 spans, still in seq order.
	spans := tr.Spans()
	for i, s := range spans {
		if want := uint64(11 + i); s.Seq != want {
			t.Fatalf("span %d seq = %d, want %d", i, s.Seq, want)
		}
	}
}

// TestEvictionAtDefaultMaxTraces exercises the registry's task-trace cap at
// its real production value: the (DefaultMaxTraces+1)-th task evicts exactly
// the oldest trace, and subsequent tasks keep evicting in insertion order.
func TestEvictionAtDefaultMaxTraces(t *testing.T) {
	r := New()
	id := func(i int) string { return fmt.Sprintf("T%04d", i) }
	for i := 0; i < DefaultMaxTraces; i++ {
		r.TaskTrace(id(i)).Span("k", "", "")
	}
	if r.LookupTrace(id(0)) == nil {
		t.Fatal("T0000 evicted before the cap was reached")
	}
	r.TaskTrace(id(DefaultMaxTraces)).Span("k", "", "")
	if r.LookupTrace(id(0)) != nil {
		t.Fatal("oldest trace survived past DefaultMaxTraces")
	}
	if r.LookupTrace(id(1)) == nil {
		t.Fatal("second-oldest trace evicted out of order")
	}
	r.TaskTrace(id(DefaultMaxTraces+1)).Span("k", "", "")
	if r.LookupTrace(id(1)) != nil {
		t.Fatal("eviction did not proceed oldest-first")
	}
	for _, i := range []int{2, DefaultMaxTraces - 1, DefaultMaxTraces, DefaultMaxTraces + 1} {
		if r.LookupTrace(id(i)) == nil {
			t.Fatalf("trace %s evicted too early", id(i))
		}
	}
}

// TestEvictionNeverOrphansLiveLinks drives registry-level trace eviction
// concurrently with span recording on live trace handles and asserts the
// hierarchy invariant: every child span a live handle records keeps a
// resolvable parent link (the latched root) no matter how much churn evicts
// and re-creates registry entries around it. Run under -race this also pins
// the locking of the eviction and record paths against each other.
func TestEvictionNeverOrphansLiveLinks(t *testing.T) {
	r := New()
	r.SetTraceCapacity(256, 2) // tiny trace cap: every new task evicts

	const workers = 4
	const tasksPerWorker = 50
	var wg sync.WaitGroup
	type result struct {
		root  SpanContext
		spans []Span
	}
	results := make([][]result, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < tasksPerWorker; i++ {
				// Each TaskTrace call races with the others' evictions: at
				// cap 2, most of these evict a trace another goroutine is
				// actively recording into.
				tr := r.TaskTrace(fmt.Sprintf("T-%d-%d", w, i))
				root, endRoot := tr.StartRoot("task", "t", "", nil)
				_, endQ := tr.Begin(root, "queue_wait", "t")
				endQ("dequeued")
				tr.Span("dispatch", "svc", "")
				_, endE := tr.Begin(root, "enact", "t")
				endE("done")
				endRoot("succeeded")
				results[w] = append(results[w], result{root: root, spans: tr.Spans()})
			}
		}(w)
	}
	wg.Wait()

	for w, rs := range results {
		for i, res := range rs {
			ids := map[string]bool{res.root.SpanID.String(): true}
			for _, s := range res.spans {
				if s.SpanID != "" {
					ids[s.SpanID] = true
				}
			}
			if len(res.spans) != 4 {
				t.Fatalf("worker %d task %d: %d spans, want 4", w, i, len(res.spans))
			}
			for _, s := range res.spans {
				if s.TraceID != res.root.TraceID.String() {
					t.Fatalf("worker %d task %d: span %s trace %q, want %q",
						w, i, s.Kind, s.TraceID, res.root.TraceID)
				}
				if s.Kind == "task" {
					continue // the root has no parent
				}
				if !ids[s.ParentID] {
					t.Fatalf("worker %d task %d: span %s orphaned parent %q",
						w, i, s.Kind, s.ParentID)
				}
			}
		}
	}
}
