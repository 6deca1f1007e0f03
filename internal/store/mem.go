package store

import (
	"errors"
	"sort"
	"strings"
	"sync"
)

// errClosed rejects operations on a closed store.
var errClosed = errors.New("store: closed")

// Memory is the volatile backend: the versioned map the storage service has
// always kept, now behind the Store interface. Mutations are immediate and
// never fail; nothing is durable — the contents die with the process. Tests
// that need a second life over the same contents share one Memory between
// Fenced handles.
type Memory struct {
	stats *counters

	mu     sync.RWMutex
	data   map[string][][]byte
	closed bool
}

// NewMemory returns an empty in-memory store.
func NewMemory(opts Options) *Memory {
	return &Memory{
		stats: newCounters(opts.Telemetry),
		data:  make(map[string][][]byte),
	}
}

// Kind implements Store.
func (m *Memory) Kind() string { return "mem" }

// Put implements Store.
func (m *Memory) Put(key string, value []byte) (int, error) {
	cp := append([]byte(nil), value...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, errClosed
	}
	m.data[key] = append(m.data[key], cp)
	m.stats.appends.Add(1)
	m.stats.mAppends.Inc()
	return len(m.data[key]), nil
}

// PutAsync implements Store; memory writes are immediate, so it is Put.
func (m *Memory) PutAsync(key string, value []byte) (int, error) {
	return m.Put(key, value)
}

// Replace implements Store: drop every version of key and write value as
// version 1 in one step.
func (m *Memory) Replace(key string, value []byte) (int, error) {
	cp := append([]byte(nil), value...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, errClosed
	}
	m.data[key] = [][]byte{cp}
	m.stats.appends.Add(1)
	m.stats.mAppends.Inc()
	return 1, nil
}

// Get implements Store.
func (m *Memory) Get(key string, version int) ([]byte, int, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	versions := m.data[key]
	if len(versions) == 0 {
		return nil, 0, false, nil
	}
	if version == 0 {
		version = len(versions)
	}
	if version < 1 || version > len(versions) {
		return nil, 0, false, nil
	}
	return append([]byte(nil), versions[version-1]...), version, true, nil
}

// Keys implements Store.
func (m *Memory) Keys(prefix string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	if _, ok := m.data[key]; ok {
		delete(m.data, key)
		m.stats.appends.Add(1)
		m.stats.mAppends.Inc()
	}
	return nil
}

// Sync implements Store; memory writes are immediate.
func (m *Memory) Sync() error { return nil }

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.RLock()
	records := 0
	for _, vs := range m.data {
		records += len(vs)
	}
	s := Stats{Backend: "mem", Keys: len(m.data), Records: records}
	m.mu.RUnlock()
	m.stats.fill(&s)
	return s
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
