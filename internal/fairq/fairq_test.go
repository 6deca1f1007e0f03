package fairq

import (
	"math"
	"testing"
)

func weights(m map[string]int) func(string) int {
	return func(t string) int { return m[t] }
}

func drainOrder(q *Queue[string], eligible func(string) bool) []string {
	var out []string
	for {
		it, ok := q.Pop(eligible)
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestSingleTenantFIFO(t *testing.T) {
	q := New[int](3, nil)
	for i := 0; i < 10; i++ {
		q.Push(1, "", i)
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Pop(nil)
		if !ok || got != i {
			t.Fatalf("pop %d: got %d ok=%v", i, got, ok)
		}
	}
	if _, ok := q.Pop(nil); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

func TestClassPriority(t *testing.T) {
	q := New[string](3, nil)
	q.Push(2, "a", "low")
	q.Push(0, "a", "high")
	q.Push(1, "a", "normal")
	got := drainOrder(q, nil)
	want := []string{"high", "normal", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestWeightedDrainShares(t *testing.T) {
	// Tenants a:3, b:1, c:1 all backlogged: any window of 5 consecutive
	// pops must contain 3 a's, 1 b, 1 c.
	q := New[string](1, weights(map[string]int{"a": 3, "b": 1, "c": 1}))
	for i := 0; i < 30; i++ {
		q.Push(0, "a", "a")
	}
	for i := 0; i < 10; i++ {
		q.Push(0, "b", "b")
		q.Push(0, "c", "c")
	}
	order := drainOrder(q, nil)
	if len(order) != 50 {
		t.Fatalf("drained %d items, want 50", len(order))
	}
	counts := map[string]int{}
	for i, tenant := range order[:50] {
		counts[tenant]++
		if (i+1)%5 == 0 {
			if counts["a"] != 3 || counts["b"] != 1 || counts["c"] != 1 {
				t.Fatalf("window ending at %d: counts %v, want a:3 b:1 c:1", i, counts)
			}
			counts = map[string]int{}
		}
	}
}

func TestEqualWeightsRoundRobin(t *testing.T) {
	q := New[string](1, nil)
	for i := 0; i < 3; i++ {
		q.Push(0, "x", "x")
		q.Push(0, "y", "y")
	}
	got := drainOrder(q, nil)
	want := []string{"x", "y", "x", "y", "x", "y"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestIneligibleTenantSkipped(t *testing.T) {
	q := New[string](1, nil)
	q.Push(0, "busy", "busy-1")
	q.Push(0, "idle", "idle-1")
	q.Push(0, "busy", "busy-2")

	eligible := func(tenant string) bool { return tenant != "busy" }
	it, ok := q.Pop(eligible)
	if !ok || it != "idle-1" {
		t.Fatalf("pop skipping busy: got %q ok=%v", it, ok)
	}
	if _, ok := q.Pop(eligible); ok {
		t.Fatal("pop returned an item from an ineligible tenant")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	// Once eligible again, busy's items drain in FIFO order.
	it, _ = q.Pop(nil)
	if it != "busy-1" {
		t.Fatalf("got %q, want busy-1", it)
	}
}

func TestRemove(t *testing.T) {
	q := New[int](2, nil)
	for i := 0; i < 4; i++ {
		q.Push(1, "t", i)
	}
	if !q.Remove(1, "t", func(v int) bool { return v == 2 }) {
		t.Fatal("Remove failed to find item")
	}
	if q.Remove(1, "t", func(v int) bool { return v == 99 }) {
		t.Fatal("Remove matched a missing item")
	}
	got := drainOrder2(q)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	// Removing the last item of a tenant must drop its flow entirely.
	q.Push(0, "t", 7)
	if !q.Remove(0, "t", func(v int) bool { return v == 7 }) {
		t.Fatal("Remove failed on single-item flow")
	}
	if q.Len() != 0 || len(q.DepthByTenant()) != 0 {
		t.Fatalf("queue not empty after removals: len=%d flows=%v", q.Len(), q.DepthByTenant())
	}
}

func drainOrder2(q *Queue[int]) []int {
	var out []int
	for {
		it, ok := q.Pop(nil)
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestPositionSingleTenant(t *testing.T) {
	q := New[int](3, nil)
	q.Push(0, "", 100) // one high-priority item ahead
	for i := 0; i < 5; i++ {
		q.Push(1, "", i)
	}
	for i := 0; i < 5; i++ {
		want := 2 + i // behind the high item and earlier normal items
		got := q.Position(1, "", func(v int) bool { return v == i })
		if got != want {
			t.Fatalf("position of %d = %d, want %d", i, got, want)
		}
	}
	if got := q.Position(1, "", func(v int) bool { return v == 42 }); got != 0 {
		t.Fatalf("position of missing item = %d, want 0", got)
	}
}

func TestDepthAccounting(t *testing.T) {
	q := New[int](2, nil)
	q.Push(0, "a", 1)
	q.Push(1, "a", 2)
	q.Push(1, "b", 3)
	if q.Len() != 3 || q.ClassLen(0) != 1 || q.ClassLen(1) != 2 {
		t.Fatalf("len=%d class0=%d class1=%d", q.Len(), q.ClassLen(0), q.ClassLen(1))
	}
	d := q.DepthByTenant()
	if d["a"] != 2 || d["b"] != 1 || len(d) != 2 {
		t.Fatalf("DepthByTenant = %v", d)
	}
	got := q.Drain()
	if len(got) != 3 || q.Len() != 0 {
		t.Fatalf("drain returned %d items, len now %d", len(got), q.Len())
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(2, 2) // 2/s, burst 2, starts full
	if !b.Allow(0) || !b.Allow(0) {
		t.Fatal("burst of 2 not allowed at t=0")
	}
	if b.Allow(0) {
		t.Fatal("third immediate request allowed")
	}
	if ra := b.RetryAfter(0); math.Abs(ra-0.5) > 1e-9 {
		t.Fatalf("RetryAfter = %v, want 0.5", ra)
	}
	if !b.Allow(0.5) {
		t.Fatal("request after refill window rejected")
	}
	// Tokens cap at burst even after a long idle period.
	b.advance(100)
	if b.Remaining(100) != 2 {
		t.Fatalf("remaining after idle = %d, want 2", b.Remaining(100))
	}
	if b.Limit() != 2 {
		t.Fatalf("limit = %d, want 2", b.Limit())
	}
	if NewTokenBucket(0, 5) != nil {
		t.Fatal("zero rate should disable limiting")
	}
	if db := NewTokenBucket(2.5, 0); db.Limit() != 3 {
		t.Fatalf("default burst = %d, want ceil(rate) = 3", db.Limit())
	}
}

// TestDeterministicReplay pins down the full drain sequence for a mixed
// workload: the simulator's byte-identical reports depend on this order
// never changing across refactors.
func TestDeterministicReplay(t *testing.T) {
	build := func() *Queue[string] {
		q := New[string](2, weights(map[string]int{"a": 2, "b": 1}))
		for i := 0; i < 4; i++ {
			q.Push(1, "a", "a")
			q.Push(1, "b", "b")
		}
		q.Push(0, "b", "B")
		return q
	}
	first := drainOrder(build(), nil)
	second := drainOrder(build(), nil)
	want := []string{"B", "a", "a", "b", "a", "a", "b", "b", "b"}
	if len(first) != len(want) {
		t.Fatalf("drained %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] || second[i] != want[i] {
			t.Fatalf("drain order %v / %v, want %v", first, second, want)
		}
	}
}
