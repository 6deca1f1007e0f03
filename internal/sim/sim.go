// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock and an event queue ordered by time (FIFO among
// simultaneous events). The grid substrate and the simulation core service
// are built on it; determinism (given a seed) is what lets the experiment
// harness reproduce the paper's runs exactly.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// event is a scheduled callback.
type event struct {
	Time float64
	Name string // named in the scheduled-in-the-past panic
	Fn   func()

	seq uint64 // tie-break: FIFO among equal times
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now   float64
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
}

// NewEngine returns an engine with its clock at zero and a deterministic
// random stream seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule enqueues fn to run after delay virtual seconds. Negative delays
// are clamped to zero (schedule "now").
func (e *Engine) Schedule(delay float64, name string, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.queue, &event{Time: e.now + delay, Name: name, Fn: fn, seq: e.seq})
}

// Step fires the next event. It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*event)
	if ev.Time < e.now {
		panic(fmt.Sprintf("sim: event %q scheduled in the past (%g < %g)", ev.Name, ev.Time, e.now))
	}
	e.now = ev.Time
	ev.Fn()
	return true
}

// Run fires events until the queue drains or the clock passes until
// (until <= 0 means no horizon). It returns the number of events fired.
func (e *Engine) Run(until float64) int {
	fired := 0
	for {
		// Peek: do not cross the horizon.
		if until > 0 && len(e.queue) > 0 && e.queue[0].Time > until {
			e.now = until
			break
		}
		if !e.Step() {
			break
		}
		fired++
	}
	return fired
}

// RunAll fires events until the queue drains and returns the count.
func (e *Engine) RunAll() int { return e.Run(0) }
