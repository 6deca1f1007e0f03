package store

import (
	"sync"
	"time"
)

// maxUnflushed is the backlog of appended-but-not-durable mutations at which
// an async append stops riding along and waits for a flush like any other
// writer, so the buffer stays bounded when nothing else asks for durability.
const maxUnflushed = 256

// committer is the group commit shared by the durable backends: one buffer
// of encoded mutations and two sequence numbers. A writer that needs
// durability and finds no flush in flight becomes the leader: it takes
// everything appended so far and hands it to the backend's flush function
// (write + fsync + post-processing such as segment rotation). Writers that
// arrive meanwhile append and wait; when the round ends the first to wake
// leads the next one with all of them aboard, so concurrent writers share
// fsyncs and none observes a non-durable acknowledgement. An async append
// only joins the buffer — it rides the next durable write, Sync or Close.
type committer struct {
	stats *counters

	// flush persists a run of encoded records; only the leader of a round
	// calls it, and it must return once the bytes are on disk.
	flush func(buf []byte) error

	mu       sync.Mutex
	cond     *sync.Cond // signalled at the end of every round
	buf      []byte     // mutations (durable, appended], encoded, unless a round holds them
	idle     []byte     // the previous round's buffer, kept for its capacity
	appended uint64     // mutations accepted
	durable  uint64     // mutations on disk; durable <= appended
	flushing bool       // a leader is inside flush
	failed   error      // sticky: first flush error poisons the store
}

func newCommitter(stats *counters, flush func([]byte) error) *committer {
	c := &committer{stats: stats, flush: flush}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// append adds one encoded mutation to the buffer and returns its sequence
// number. Backends call it while holding their ordering mutex, so buffer
// order matches version order, then release that mutex before commit. Lock
// order is backend mutex → c.mu, never the reverse.
func (c *committer) append(enc []byte) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed != nil {
		return 0, c.failed
	}
	c.buf = append(c.buf, enc...)
	c.appended++
	c.stats.gPending.Set(float64(c.appended - c.durable))
	return c.appended, nil
}

// commit blocks until mutation seq is durable. With wait false (an async
// append) it returns at once unless the backlog has reached maxUnflushed.
// The caller must NOT hold the backend's ordering mutex.
func (c *committer) commit(seq uint64, wait bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !wait && c.appended-c.durable < maxUnflushed {
		return nil
	}
	return c.waitLocked(seq)
}

// waitLocked returns once mutation seq is durable, leading as many rounds as
// it finds nobody else leading; caller holds c.mu.
func (c *committer) waitLocked(seq uint64) error {
	for c.durable < seq {
		if c.failed != nil {
			return c.failed
		}
		if c.flushing {
			c.cond.Wait()
			continue
		}
		out, upto, n := c.buf, c.appended, int(c.appended-c.durable)
		c.buf, c.flushing = c.idle[:0], true
		c.mu.Unlock()

		start := time.Now()
		err := c.flush(out)
		c.stats.noteFlush(n, time.Since(start))

		c.mu.Lock()
		c.idle, c.flushing = out, false
		if err != nil {
			c.failed = err
		} else {
			c.durable = upto
			c.stats.gPending.Set(float64(c.appended - c.durable))
		}
		c.cond.Broadcast()
	}
	return nil
}

// sync blocks until everything accepted so far is durable; it is also how a
// backend that has stopped appending drains the buffer before it closes its
// file. A failed flush leaves durable short of appended for good, so a
// poisoned store answers with the sticky error.
func (c *committer) sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waitLocked(c.appended)
}

// pendingCount reports mutations awaiting fsync.
func (c *committer) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.appended - c.durable)
}
