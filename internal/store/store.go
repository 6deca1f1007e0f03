// Package store is the pluggable persistence layer behind the storage
// service and the enactment engine's write-ahead journal. It separates the
// execution layer from a replaceable storage/metadata layer (Costan et al.'s
// architectural model): everything above speaks the Store interface, and the
// backend is selected at startup by a DSN —
//
//	mem:            volatile in-memory map (fast, nothing survives the process)
//	file:DIR        append-only segmented log of CRC-checked binary frames,
//	                with rotation and compaction (the one durable backend)
//
// The data model is the versioned key-value store the system has always
// used: Put appends a new version of a key (1-based), Get addresses a
// specific version (0 = latest), Delete drops a key with all its versions.
// The enactment journal is a key per task whose versions are the append-only
// lifecycle log, so journal appends are Puts.
//
// The durable backend writes through a group commit: a writer that finds no
// fsync in flight flushes everything appended so far, writers that arrive
// meanwhile share the next one, so N concurrent admissions share one
// durability round-trip. A mutation only returns once the fsync that carries
// it is done — callers never observe an acknowledged write that a crash can
// undo. There is nothing to tune.
package store

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Store is the redesigned storage API: a versioned key-value store with
// durability semantics per backend. Implementations are safe for concurrent
// use. Mutations on durable backends return only after the write is fsynced
// (group-committed); reads never block on the committer. A value is copied
// before Put, PutAsync or Replace returns, so the caller may reuse its buffer
// at once; Get returns a copy the caller owns, so it may keep sub-slices of
// the value or write to it.
type Store interface {
	// Kind names the backend ("mem" or "file").
	Kind() string
	// Put appends a new version of key and returns its 1-based number.
	Put(key string, value []byte) (int, error)
	// PutAsync appends a new version of key without waiting for an fsync or
	// starting one: the record becomes durable with the next durable write,
	// Sync or Close. Ordering against other mutations is still fixed at the
	// call (the record joins the log in call order); only the durability
	// wait is skipped, so use it for records whose loss a crash already
	// tolerates. A flush failure surfaces on the next synchronous mutation
	// or Sync.
	PutAsync(key string, value []byte) (int, error)
	// Replace atomically discards every version of key and writes value as
	// version 1 — one log record, one group-commit slot, so a crash can
	// never observe the discard without the write (unlike a Delete+Put
	// pair, whose batches may fsync separately). Log compaction of
	// journal-style keys is the intended use.
	Replace(key string, value []byte) (int, error)
	// Get returns the given version of key (0 = latest), in a copy of its
	// own.
	Get(key string, version int) (value []byte, ver int, found bool, err error)
	// Keys returns all live keys with the prefix, sorted.
	Keys(prefix string) []string
	// Delete removes a key and all its versions. Deleting an absent key is
	// not an error.
	Delete(key string) error
	// Sync blocks until every previously accepted mutation is durable.
	Sync() error
	// Stats snapshots backend counters for the operational surface.
	Stats() Stats
	// Close flushes pending writes and releases the backend's resources.
	Close() error
}

// DurableCopier is implemented by disk-backed stores. CopyDurable clones
// exactly the bytes guaranteed on disk — the image a kill -9 would leave
// behind — into the directory dst.
// Crash-recovery tests and backup tooling use it; in-flight batches that
// have not been fsynced are deliberately excluded.
type DurableCopier interface {
	CopyDurable(dst string) error
}

// Stats is a point-in-time snapshot of one backend, served by
// GET /api/v1/store and folded into /api/v1/stats.
type Stats struct {
	// Backend is the kind string ("mem" or "file").
	Backend string `json:"backend"`
	// Keys is the number of live keys; Records counts live versions.
	Keys    int `json:"keys"`
	Records int `json:"records"`
	// Segments counts on-disk segment files, the snapshot included (file
	// backend; 0 for mem). Bytes is the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Appends counts accepted mutations (puts + deletes); Batched counts
	// mutations that shared their fsync with at least one other; Flushes
	// counts fsync rounds. Batched/Appends is the group-commit hit rate.
	Appends int64 `json:"appends"`
	Batched int64 `json:"batched"`
	Flushes int64 `json:"flushes"`
	// PendingFlush is how many accepted mutations are waiting on the next
	// fsync right now.
	PendingFlush int `json:"pendingFlush"`
	// Compactions counts log compactions; LastCompaction is the wall time of
	// the most recent one (zero when none ran).
	Compactions    int64     `json:"compactions"`
	LastCompaction time.Time `json:"lastCompaction,omitzero"`
}

// Options configures Open.
type Options struct {
	// Telemetry, when set, records store.* metrics (appends, flushes, batch
	// sizes, flush latency, segment counts, compactions).
	Telemetry *telemetry.Registry
	// Only this package's tests set the two bounds below.
	//
	// segmentMaxBytes rotates the file backend's active segment beyond this
	// size. 0 means DefaultSegmentMaxBytes.
	segmentMaxBytes int64
	// compactAfterSegments folds sealed segments into a snapshot once their
	// count reaches this bound (file backend). 0 means
	// DefaultCompactAfterSegments.
	compactAfterSegments int
}

// Defaults for the file backend's segment lifecycle.
const (
	DefaultSegmentMaxBytes      = 4 << 20
	DefaultCompactAfterSegments = 4
)

// Open builds a backend from its DSN. Supported forms: "mem:" and
// "file:DIR". The path part may be empty only for mem.
func Open(dsn string, opts Options) (Store, error) {
	scheme, path, ok := strings.Cut(dsn, ":")
	if !ok {
		return nil, fmt.Errorf("store: DSN %q has no scheme (want mem: or file:DIR)", dsn)
	}
	switch scheme {
	case "mem":
		if path != "" {
			return nil, fmt.Errorf("store: mem: takes no path, got %q", path)
		}
		return NewMemory(opts), nil
	case "file":
		if path == "" {
			return nil, fmt.Errorf("store: file: needs a directory, e.g. file:/var/lib/gridenv")
		}
		return OpenFile(path, opts)
	}
	return nil, fmt.Errorf("store: unknown backend %q (want mem or file)", scheme)
}

// counters aggregates the commit-path accounting shared by all backends.
type counters struct {
	appends     atomic.Int64
	batched     atomic.Int64
	flushes     atomic.Int64
	compactions atomic.Int64
	lastCompact atomic.Int64 // unix nanos

	mAppends, mBatched, mFlushes, mCompactions *telemetry.Counter
	hBatch, hFlush                             *telemetry.Histogram
	gSegments, gPending                        *telemetry.Gauge
}

func newCounters(tel *telemetry.Registry) *counters {
	c := &counters{}
	c.mAppends = tel.Counter("store.appends")
	c.mBatched = tel.Counter("store.appends.batched")
	c.mFlushes = tel.Counter("store.flushes")
	c.mCompactions = tel.Counter("store.compactions")
	c.hBatch = tel.Histogram("store.batch.size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	c.hFlush = tel.Histogram("store.flush.seconds", []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1})
	c.gSegments = tel.Gauge("store.segments")
	c.gPending = tel.Gauge("store.flush.pending")
	return c
}

// noteFlush records one fsync round carrying n mutations over elapsed.
func (c *counters) noteFlush(n int, elapsed time.Duration) {
	c.flushes.Add(1)
	c.mFlushes.Inc()
	if n > 1 {
		c.batched.Add(int64(n))
		c.mBatched.Add(int64(n))
	}
	c.hBatch.Observe(float64(n))
	c.hFlush.Observe(elapsed.Seconds())
}

func (c *counters) noteCompaction() {
	c.compactions.Add(1)
	c.mCompactions.Inc()
	c.lastCompact.Store(time.Now().UnixNano())
}

// fill copies the counter values into a Stats snapshot.
func (c *counters) fill(s *Stats) {
	s.Appends = c.appends.Load()
	s.Batched = c.batched.Load()
	s.Flushes = c.flushes.Load()
	s.Compactions = c.compactions.Load()
	if ns := c.lastCompact.Load(); ns > 0 {
		s.LastCompaction = time.Unix(0, ns)
	}
}
