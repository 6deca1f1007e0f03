// Package fairq implements the scheduling primitives behind the engine's
// multi-tenant admission queue: a multi-class weighted fair queue (deficit
// round-robin across tenants within each priority class) and a token bucket
// for per-tenant submit-rate limiting.
//
// Both structures are pure and deterministic: the queue's drain order is a
// function of the push/pop sequence alone, and the bucket takes its clock as
// an explicit argument. That is what lets the load generator (internal/load)
// drive the exact same code synchronously under a virtual clock and produce
// byte-identical reports from a fixed seed, while the engine drives it from
// real goroutines and wall time.
package fairq

// Queue is a bounded-class weighted fair queue. Items are pushed into a
// (class, tenant) pair; Pop drains the highest non-empty class, and within a
// class serves tenants by deficit round-robin: each time the rotor reaches a
// tenant its credit is replenished to its weight, and it may drain one item
// per credit before the rotor moves on. Over any interval in which a set of
// tenants stays backlogged, each receives service proportional to its
// weight.
//
// Queue is not concurrency-safe; the caller provides locking (the engine
// holds its own mutex around every operation).
type Queue[T any] struct {
	classes []class[T]
	weight  func(tenant string) int
	size    int
}

type class[T any] struct {
	ring     []*flow[T] // active (non-empty) tenant flows in rotor order
	byTenant map[string]*flow[T]
	cursor   int
	size     int
}

type flow[T any] struct {
	tenant string
	items  []T
	credit int
}

// New builds a queue with the given number of priority classes (class 0
// drains first). weight maps a tenant to its fair-share weight; nil or
// non-positive results mean weight 1. The function is consulted on every
// credit replenishment, so weight changes take effect at the next rotor
// visit.
func New[T any](classes int, weight func(tenant string) int) *Queue[T] {
	if classes < 1 {
		classes = 1
	}
	q := &Queue[T]{classes: make([]class[T], classes), weight: weight}
	for i := range q.classes {
		q.classes[i].byTenant = make(map[string]*flow[T])
	}
	return q
}

func (q *Queue[T]) weightOf(tenant string) int {
	if q.weight == nil {
		return 1
	}
	if w := q.weight(tenant); w > 0 {
		return w
	}
	return 1
}

// Push appends an item to the tenant's FIFO in the given class.
func (q *Queue[T]) Push(cls int, tenant string, item T) {
	c := &q.classes[cls]
	f := c.byTenant[tenant]
	if f == nil {
		f = &flow[T]{tenant: tenant}
		c.byTenant[tenant] = f
		c.ring = append(c.ring, f)
	}
	f.items = append(f.items, item)
	c.size++
	q.size++
}

// Pop removes and returns the next item: highest non-empty class first, then
// deficit round-robin across that class's tenants. Tenants for which
// eligible returns false are skipped without losing their rotor position or
// credit (the engine uses this for per-tenant in-flight caps); nil means all
// tenants are eligible. Returns false when every queued item belongs to an
// ineligible tenant or the queue is empty.
func (q *Queue[T]) Pop(eligible func(tenant string) bool) (T, bool) {
	for i := range q.classes {
		if item, ok := q.classes[i].pop(q.weightOf, eligible); ok {
			q.size--
			return item, true
		}
	}
	var zero T
	return zero, false
}

func (c *class[T]) pop(weight func(string) int, eligible func(string) bool) (T, bool) {
	var zero T
	for scanned, n := 0, len(c.ring); scanned < n; scanned++ {
		if c.cursor >= len(c.ring) {
			c.cursor = 0
		}
		f := c.ring[c.cursor]
		if eligible != nil && !eligible(f.tenant) {
			c.cursor++
			continue
		}
		if f.credit <= 0 {
			f.credit = weight(f.tenant)
		}
		item := f.items[0]
		f.items[0] = zero // release the reference
		f.items = f.items[1:]
		f.credit--
		c.size--
		if len(f.items) == 0 {
			c.removeFlow(c.cursor)
		} else if f.credit == 0 {
			c.cursor++
		}
		return item, true
	}
	return zero, false
}

// removeFlow drops the (drained) flow at ring index i, keeping the cursor on
// the flow that followed it.
func (c *class[T]) removeFlow(i int) {
	f := c.ring[i]
	f.credit = 0
	delete(c.byTenant, f.tenant)
	c.ring = append(c.ring[:i], c.ring[i+1:]...)
	if c.cursor > i {
		c.cursor--
	}
}

// Remove deletes the first item in the tenant's FIFO of the given class for
// which match returns true. Reports whether an item was removed.
func (q *Queue[T]) Remove(cls int, tenant string, match func(T) bool) bool {
	c := &q.classes[cls]
	f := c.byTenant[tenant]
	if f == nil {
		return false
	}
	for i, it := range f.items {
		if !match(it) {
			continue
		}
		var zero T
		f.items[i] = zero
		f.items = append(f.items[:i], f.items[i+1:]...)
		c.size--
		q.size--
		if len(f.items) == 0 {
			for ri, rf := range c.ring {
				if rf == f {
					c.removeFlow(ri)
					break
				}
			}
		}
		return true
	}
	return false
}

// Drain empties the queue and returns every item, classes in priority order
// and per-tenant FIFOs interleaved by the fair drain order.
func (q *Queue[T]) Drain() []T {
	out := make([]T, 0, q.size)
	for {
		item, ok := q.Pop(nil)
		if !ok {
			return out
		}
		out = append(out, item)
	}
}

// Len returns the total number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// ClassLen returns the number of items queued in one class.
func (q *Queue[T]) ClassLen(cls int) int { return q.classes[cls].size }

// DepthByTenant returns the queued-item count per tenant across all classes.
func (q *Queue[T]) DepthByTenant() map[string]int {
	out := make(map[string]int)
	for i := range q.classes {
		for tenant, f := range q.classes[i].byTenant {
			out[tenant] += len(f.items)
		}
	}
	return out
}

// Position estimates the 1-based drain position of the first item in the
// (class, tenant) FIFO matching match: every item in higher classes drains
// first, and within the item's class the per-tenant FIFOs are assumed to
// interleave one item per rotor visit (weights are ignored, so positions for
// weighted tenants are an upper bound). With a single active tenant this is
// the exact FIFO position. Returns 0 when no item matches.
func (q *Queue[T]) Position(cls int, tenant string, match func(T) bool) int {
	c := &q.classes[cls]
	f := c.byTenant[tenant]
	if f == nil {
		return 0
	}
	idx := -1
	for i, it := range f.items {
		if match(it) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	pos := 0
	for i := 0; i < cls; i++ {
		pos += q.classes[i].size
	}
	// Rotor distance decides who is served first at equal FIFO depth.
	order := func(g *flow[T]) int {
		for i, rf := range c.ring {
			if rf == g {
				return (i - c.cursor + len(c.ring)) % len(c.ring)
			}
		}
		return 0
	}
	mine := order(f)
	for _, g := range c.ring {
		if g == f {
			pos += idx
			continue
		}
		ahead := idx
		if order(g) < mine {
			ahead++
		}
		if ahead > len(g.items) {
			ahead = len(g.items)
		}
		pos += ahead
	}
	return pos + 1
}
