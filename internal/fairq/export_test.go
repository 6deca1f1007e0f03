package fairq

// Len returns the total number of queued items.
func (q *Queue[T]) Len() int { return q.size }
