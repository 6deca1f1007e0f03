package store

import (
	"errors"
	"sync/atomic"
)

// ErrFenced rejects mutations on a fenced store handle.
var ErrFenced = errors.New("store: handle is fenced")

// Fenced wraps a backend with a write fence, the standard failover guard
// against split-brain: once the cluster declares a node dead and moves its
// partition, that node's storage handle is fenced so a zombie process (a
// network-partitioned peer that is still running) can no longer mutate the
// shared store underneath the new owner. Reads stay allowed — they are
// harmless and keep the zombie's diagnostics working.
//
// Fenced also lets several in-process environments share one backend: each
// gets its own handle, Close fences the handle without closing the shared
// backend (unless OwnsBackend is set), and tests can Fence a handle to
// simulate a kill -9 whose victim never gets another byte to disk.
type Fenced struct {
	inner Store
	// OwnsBackend makes Close close the wrapped backend too. Leave false
	// when several handles share it; close the backend once, separately.
	OwnsBackend bool

	fenced atomic.Bool
}

// NewFenced wraps a backend with a write fence (initially open).
func NewFenced(inner Store) *Fenced { return &Fenced{inner: inner} }

// Fence cuts the handle off: every subsequent mutation fails with
// ErrFenced. Irreversible by design — a fenced node rejoins by reopening
// its store, not by un-fencing a handle whose writes may have raced the
// failover.
func (f *Fenced) Fence() { f.fenced.Store(true) }

func (f *Fenced) guard() error {
	if f.fenced.Load() {
		return ErrFenced
	}
	return nil
}

// Kind names the wrapped backend.
func (f *Fenced) Kind() string { return f.inner.Kind() }

// Put appends through the fence.
func (f *Fenced) Put(key string, value []byte) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	return f.inner.Put(key, value)
}

// PutAsync appends through the fence without the durability wait.
func (f *Fenced) PutAsync(key string, value []byte) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	return f.inner.PutAsync(key, value)
}

// Replace compacts through the fence.
func (f *Fenced) Replace(key string, value []byte) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	return f.inner.Replace(key, value)
}

// Get reads; reads are never fenced.
func (f *Fenced) Get(key string, version int) ([]byte, int, bool, error) {
	return f.inner.Get(key, version)
}

// Keys lists; reads are never fenced.
func (f *Fenced) Keys(prefix string) []string { return f.inner.Keys(prefix) }

// Delete removes through the fence.
func (f *Fenced) Delete(key string) error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.Delete(key)
}

// Sync flushes through the fence (a fenced handle has nothing durable to
// promise).
func (f *Fenced) Sync() error {
	if err := f.guard(); err != nil {
		return err
	}
	return f.inner.Sync()
}

// Stats snapshots the wrapped backend.
func (f *Fenced) Stats() Stats { return f.inner.Stats() }

// Close fences the handle; the wrapped backend is closed only when
// OwnsBackend is set.
func (f *Fenced) Close() error {
	f.Fence()
	if f.OwnsBackend {
		return f.inner.Close()
	}
	return nil
}
