package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrderingByTime(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(3, "c", func() { order = append(order, "c") })
	e.Schedule(1, "a", func() { order = append(order, "a") })
	e.Schedule(2, "b", func() { order = append(order, "b") })
	if n := e.RunAll(); n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %g, want 3", e.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, "x", func() { order = append(order, i) })
	}
	e.RunAll()
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events not FIFO: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var times []float64
	e.Schedule(1, "outer", func() {
		times = append(times, e.Now())
		e.Schedule(2, "inner", func() {
			times = append(times, e.Now())
		})
	})
	e.RunAll()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), "x", func() { fired++ })
	}
	n := e.Run(5.5)
	if n != 5 || fired != 5 {
		t.Errorf("fired %d/%d events before horizon, want 5", n, fired)
	}
	if e.Now() != 5.5 {
		t.Errorf("Now = %g, want 5.5 (advanced to horizon)", e.Now())
	}
	// Remaining events still fire afterwards.
	if n := e.RunAll(); n != 5 {
		t.Errorf("remaining = %d, want 5", n)
	}
}

func TestScheduleAtAndClamping(t *testing.T) {
	e := NewEngine(1)
	var at []float64
	e.Schedule(2, "adv", func() {
		// Scheduling at an absolute time in the past clamps to now.
		e.Schedule(1-e.Now(), "past", func() { at = append(at, e.Now()) })
		e.Schedule(4-e.Now(), "future", func() { at = append(at, e.Now()) })
	})
	e.RunAll()
	if len(at) != 2 || at[0] != 2 || at[1] != 4 {
		t.Errorf("at = %v, want [2 4]", at)
	}
	// Negative delay clamps.
	fired := false
	e.Schedule(-5, "neg", func() { fired = true })
	e.RunAll()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Float64() != b.Rand().Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Property: events fire in nondecreasing time order regardless of insertion
// order.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		e := NewEngine(7)
		var fired []float64
		for _, d := range delaysRaw {
			e.Schedule(float64(d)/10, "x", func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		return sort.Float64sAreSorted(fired) && len(fired) == len(delaysRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 100; j++ {
			e.Schedule(float64(j%17), "x", func() {})
		}
		e.RunAll()
	}
}
