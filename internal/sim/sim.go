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

// Event is a scheduled callback.
type Event struct {
	Time float64
	Name string // for tracing
	Fn   func()

	seq       uint64 // tie-break: FIFO among equal times
	index     int    // heap index; -1 once popped or cancelled
	cancelled bool
}

// Cancel prevents the event from firing. Safe to call more than once.
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now     float64
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	trace   func(time float64, name string)
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

// SetTrace installs a callback invoked as each event fires.
func (e *Engine) SetTrace(fn func(time float64, name string)) { e.trace = fn }

// Schedule enqueues fn to run after delay virtual seconds and returns the
// event, which may be cancelled. Negative delays are clamped to zero
// (schedule "now").
func (e *Engine) Schedule(delay float64, name string, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := &Event{Time: e.now + delay, Name: name, Fn: fn, seq: e.seq}
	heap.Push(&e.queue, ev)
	return ev
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event. It reports whether an event fired.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancelled {
			continue
		}
		if ev.Time < e.now {
			panic(fmt.Sprintf("sim: event %q scheduled in the past (%g < %g)", ev.Name, ev.Time, e.now))
		}
		e.now = ev.Time
		if e.trace != nil {
			e.trace(e.now, ev.Name)
		}
		ev.Fn()
		return true
	}
	return false
}

// Run fires events until the queue drains, Stop is called, or the clock
// passes until (until <= 0 means no horizon). It returns the number of
// events fired.
func (e *Engine) Run(until float64) int {
	e.stopped = false
	fired := 0
	for !e.stopped {
		if until > 0 && len(e.queue) > 0 {
			// Peek: do not cross the horizon.
			next := e.queue[0]
			if !next.cancelled && next.Time > until {
				e.now = until
				break
			}
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
