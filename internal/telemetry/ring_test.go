package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// flatRing is the reference ring: one slice of capacity slots, the oldest span
// overwritten first.
type flatRing struct {
	buf   []Span
	start int
}

func (f *flatRing) add(s Span, capacity int) {
	if len(f.buf) < capacity {
		f.buf = append(f.buf, s)
		return
	}
	f.buf[f.start] = s
	f.start = (f.start + 1) % capacity
}

func (f *flatRing) spans() []Span {
	return append(append([]Span{}, f.buf[f.start:]...), f.buf[:f.start]...)
}

// TestSegmentedRingMatchesFlatRing holds the segmented trace ring to the
// flat one: the same spans in the same order, and the same drop count, for
// span counts on both sides of every segment boundary and of the capacity.
func TestSegmentedRingMatchesFlatRing(t *testing.T) {
	capacities := []int{1, 2, traceSegment - 1, traceSegment, traceSegment + 1, 2 * traceSegment, 3*traceSegment + 5, DefaultSpanCap}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 12; i++ {
		capacities = append(capacities, 1+rng.Intn(5*traceSegment))
	}
	base := time.Unix(1_700_000_000, 0)
	for _, capacity := range capacities {
		r := New()
		r.SetTraceCapacity(capacity, 0)
		tr := r.TaskTrace(fmt.Sprintf("T-%d", capacity))
		var ref flatRing
		total := 2*capacity + 3*traceSegment + rng.Intn(capacity+1)
		for n := 1; n <= total; n++ {
			s := Span{Time: base.Add(time.Duration(n)), Kind: "fire", Name: fmt.Sprintf("a%d", n), Detail: "d"}
			recordSpan(t, tr, s)
			s.Seq = uint64(n)
			ref.add(s, capacity)
			// Checking after every append is quadratic: check densely around
			// the interesting points and sparsely elsewhere.
			if n <= 3*traceSegment || n%37 == 0 || n == total || (n >= capacity-1 && n <= capacity+1) {
				if got, want := tr.Spans(), ref.spans(); !reflect.DeepEqual(got, want) {
					t.Fatalf("capacity %d after %d spans: ring holds %d spans, flat ring %d, or not the same",
						capacity, n, len(got), len(want))
				}
				if got, want := tr.Dropped(), uint64(n-len(ref.buf)); got != want {
					t.Fatalf("capacity %d after %d spans: dropped %d, flat ring %d", capacity, n, got, want)
				}
			}
		}
		if segs := len(tr.segs); segs != (capacity+traceSegment-1)/traceSegment {
			t.Errorf("capacity %d: %d segments, want %d", capacity, segs, (capacity+traceSegment-1)/traceSegment)
		}
	}
}

// TestSegmentedRingConcurrent records from several goroutines while others
// read, for the race detector: every span is either held or counted dropped.
func TestSegmentedRingConcurrent(t *testing.T) {
	r := New()
	r.SetTraceCapacity(3*traceSegment+7, 0)
	tr := r.TaskTrace("T-concurrent")
	const writers, each = 4, 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, d := len(tr.Spans()), tr.Dropped(); n > 3*traceSegment+7 {
					t.Errorf("ring holds %d spans (dropped %d) over its cap", n, d)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Span("fire", "a", "")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	spans := tr.Spans()
	if len(spans) != 3*traceSegment+7 || uint64(len(spans))+tr.Dropped() != writers*each {
		t.Fatalf("held %d + dropped %d, want %d spans in all, %d held", len(spans), tr.Dropped(), writers*each, 3*traceSegment+7)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.Seq] || s.Seq == 0 || s.Seq > writers*each {
			t.Fatalf("span seq %d repeated or out of range", s.Seq)
		}
		seen[s.Seq] = true
	}
}
