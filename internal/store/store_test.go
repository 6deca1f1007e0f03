package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// openBackend builds a backend of the given kind rooted in dir.
func openBackend(t *testing.T, kind, dir string, opts Options) Store {
	t.Helper()
	s, err := Open(dsnFor(kind, dir), opts)
	if err != nil {
		t.Fatalf("open %s: %v", kind, err)
	}
	return s
}

func dsnFor(kind, dir string) string {
	switch kind {
	case "mem":
		return "mem:"
	case "file":
		return "file:" + filepath.Join(dir, "segs")
	}
	panic("unknown kind " + kind)
}

var backends = []string{"mem", "file"}

func TestRoundTrip(t *testing.T) {
	for _, kind := range backends {
		t.Run(kind, func(t *testing.T) {
			s := openBackend(t, kind, t.TempDir(), Options{})
			defer s.Close()
			if s.Kind() != kind {
				t.Fatalf("Kind() = %q, want %q", s.Kind(), kind)
			}

			v1, err := s.Put("a", []byte("one"))
			if err != nil || v1 != 1 {
				t.Fatalf("Put = (%d, %v), want (1, nil)", v1, err)
			}
			v2, err := s.Put("a", []byte("two"))
			if err != nil || v2 != 2 {
				t.Fatalf("Put = (%d, %v), want (2, nil)", v2, err)
			}
			if _, err := s.Put("b/x", []byte("bee")); err != nil {
				t.Fatal(err)
			}

			val, ver, found, err := s.Get("a", 0)
			if err != nil || !found || ver != 2 || string(val) != "two" {
				t.Fatalf("Get latest = (%q, %d, %v, %v)", val, ver, found, err)
			}
			val, ver, found, err = s.Get("a", 1)
			if err != nil || !found || ver != 1 || string(val) != "one" {
				t.Fatalf("Get v1 = (%q, %d, %v, %v)", val, ver, found, err)
			}
			if _, _, found, _ := s.Get("a", 3); found {
				t.Fatal("Get beyond last version reported found")
			}
			if _, _, found, _ := s.Get("nope", 0); found {
				t.Fatal("Get of absent key reported found")
			}

			if keys := s.Keys(""); !reflect.DeepEqual(keys, []string{"a", "b/x"}) {
				t.Fatalf("Keys(\"\") = %v", keys)
			}
			if keys := s.Keys("b/"); !reflect.DeepEqual(keys, []string{"b/x"}) {
				t.Fatalf("Keys(\"b/\") = %v", keys)
			}

			if err := s.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if _, _, found, _ := s.Get("a", 0); found {
				t.Fatal("Get after Delete reported found")
			}
			// Versions restart at 1 after a delete.
			if v, err := s.Put("a", []byte("again")); err != nil || v != 1 {
				t.Fatalf("Put after Delete = (%d, %v), want (1, nil)", v, err)
			}
			// Deleting an absent key is a no-op, not an error.
			if err := s.Delete("ghost"); err != nil {
				t.Fatal(err)
			}

			st := s.Stats()
			if st.Backend != kind {
				t.Fatalf("Stats backend = %q", st.Backend)
			}
			if st.Keys != 2 || st.Records != 2 {
				t.Fatalf("Stats keys/records = %d/%d, want 2/2", st.Keys, st.Records)
			}
		})
	}
}

// TestReplace exercises the atomic discard-and-write: history collapses to a
// single version 1 on every backend, including across a reopen of the
// durable one (the "rep" record must replay correctly).
func TestReplace(t *testing.T) {
	for _, kind := range backends {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			s := openBackend(t, kind, dir, Options{})
			for i := 0; i < 5; i++ {
				if _, err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			ver, err := s.Replace("k", []byte("snap"))
			if err != nil || ver != 1 {
				t.Fatalf("Replace = (%d, %v), want (1, nil)", ver, err)
			}
			// Replacing an absent key is a plain write of version 1.
			if v, err := s.Replace("fresh", []byte("first")); err != nil || v != 1 {
				t.Fatalf("Replace absent = (%d, %v), want (1, nil)", v, err)
			}
			check := func(s Store, when string) {
				val, v, found, err := s.Get("k", 0)
				if err != nil || !found || v != 1 || string(val) != "snap" {
					t.Fatalf("%s: Get latest = (%q, %d, %v, %v), want (snap, 1, true, nil)", when, val, v, found, err)
				}
				if _, _, found, _ := s.Get("k", 2); found {
					t.Fatalf("%s: pre-replace version survived", when)
				}
				// Appends continue from the collapsed history.
				if v, err := s.Put("k", []byte("after")); err != nil || v != 2 {
					t.Fatalf("%s: Put after Replace = (%d, %v), want (2, nil)", when, v, err)
				}
				if err := s.Delete("k"); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Replace("k", []byte("snap")); err != nil {
					t.Fatal(err)
				}
			}
			check(s, "live")
			if kind == "mem" {
				s.Close()
				return
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := openBackend(t, kind, dir, Options{})
			defer s2.Close()
			check(s2, "reopened")
		})
	}
}

// TestPutAsync pins the PutAsync contract on every backend: versions are
// assigned in call order interleaved with synchronous mutations, the record
// is readable as soon as the call returns (the live map is updated at
// append, before the fsync), durable once a later Sync (or Close) returns,
// and it survives reopen. On the file backend it also pins, in exact counts,
// that an async append never buys an fsync: it rides the next durable write,
// Sync or Close, and only a backlog of maxUnflushed flushes itself.
func TestPutAsync(t *testing.T) {
	for _, kind := range backends {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			s := openBackend(t, kind, dir, Options{})
			// moved asserts the fsync rounds, the mutations that shared one
			// and the unflushed backlog since the last call.
			last := s.Stats()
			moved := func(s Store, when string, flushes, batched int64, pending int) {
				t.Helper()
				st := s.Stats()
				if kind == "file" && (st.Flushes-last.Flushes != flushes || st.Batched-last.Batched != batched || st.PendingFlush != pending) {
					t.Fatalf("%s: flushes +%d batched +%d pending %d, want +%d +%d %d", when,
						st.Flushes-last.Flushes, st.Batched-last.Batched, st.PendingFlush, flushes, batched, pending)
				}
				last = st
			}
			put := func(s Store, write func(string, []byte) (int, error), want int) {
				t.Helper()
				if v, err := write("k", []byte(fmt.Sprintf("v%d", want))); err != nil || v != want {
					t.Fatalf("write = (%d, %v), want (%d, nil)", v, err, want)
				}
			}
			put(s, s.Put, 1)
			moved(s, "one Put", 1, 0, 0)
			// Async appends claim the next versions in call order...
			put(s, s.PutAsync, 2)
			put(s, s.PutAsync, 3)
			moved(s, "two PutAsync", 0, 0, 2)
			// Read-your-writes holds before any durability barrier.
			if val, ver, found, err := s.Get("k", 0); err != nil || !found || ver != 3 || string(val) != "v3" {
				t.Fatalf("Get right after PutAsync = (%q, %d, %v, %v), want (v3, 3, true, nil)", val, ver, found, err)
			}
			// ...and a later synchronous append lands after them, carrying
			// them to disk in its own round.
			put(s, s.Put, 4)
			moved(s, "Put after two PutAsync", 1, 3, 0)
			put(s, s.PutAsync, 5)
			put(s, s.PutAsync, 6)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			moved(s, "Sync over two PutAsync", 1, 2, 0)
			put(s, s.PutAsync, 7)
			for v := 1; v <= 7; v++ {
				val, _, found, err := s.Get("k", v)
				if err != nil || !found || string(val) != fmt.Sprintf("v%d", v) {
					t.Fatalf("Get v%d = (%q, %v, %v)", v, val, found, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if kind == "mem" {
				return
			}
			s2 := openBackend(t, kind, dir, Options{})
			defer s2.Close()
			for _, v := range []int{3, 7} { // an async append before a Put, one before Close
				if val, _, found, _ := s2.Get("k", v); !found || string(val) != fmt.Sprintf("v%d", v) {
					t.Fatalf("async append v%d lost across reopen: (%q, %v)", v, val, found)
				}
			}
			if _, ver, _, _ := s2.Get("k", 0); ver != 7 {
				t.Fatalf("reopened latest version = %d, want 7", ver)
			}
			// A backlog nobody flushes is bounded: append number
			// maxUnflushed takes all of them to disk.
			last = s2.Stats()
			for v := 8; v < 7+maxUnflushed; v++ {
				put(s2, s2.PutAsync, v)
			}
			moved(s2, "maxUnflushed-1 PutAsync", 0, 0, maxUnflushed-1)
			put(s2, s2.PutAsync, 7+maxUnflushed)
			moved(s2, "PutAsync number maxUnflushed", 1, maxUnflushed, 0)
		})
	}
}

func TestDurableReopen(t *testing.T) {
	for _, kind := range backends[1:] { // the durable ones
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			s := openBackend(t, kind, dir, Options{})
			for i := 0; i < 10; i++ {
				if _, err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Put("other", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("other"); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2 := openBackend(t, kind, dir, Options{})
			defer s2.Close()
			val, ver, found, err := s2.Get("k", 0)
			if err != nil || !found || ver != 10 || string(val) != "v9" {
				t.Fatalf("after reopen Get = (%q, %d, %v, %v)", val, ver, found, err)
			}
			if _, _, found, _ := s2.Get("other", 0); found {
				t.Fatal("deleted key survived reopen")
			}
			if _, _, found, _ := s2.Get("k", 3); !found {
				t.Fatal("old version lost on reopen")
			}
		})
	}
}

func TestFileRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{segmentMaxBytes: 512, compactAfterSegments: 2}
	s, err := OpenFile(filepath.Join(dir, "segs"), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Enough churn on one key to force several rotations and at least one
	// compaction fold.
	payload := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 100; i++ {
		if _, err := s.Put("hot", payload); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 && i < 90 {
			if err := s.Delete("hot"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Put("cold", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran (segments=%d bytes=%d)", st.Segments, st.Bytes)
	}
	if st.LastCompaction.IsZero() {
		t.Fatal("compaction ran but LastCompaction is zero")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(filepath.Join(dir, "segs"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	val, ver, found, err := s2.Get("hot", 0)
	if err != nil || !found || ver != 10 || string(val) != string(payload) {
		t.Fatalf("after compaction+reopen Get hot = (len %d, %d, %v, %v)", len(val), ver, found, err)
	}
	if _, _, found, _ := s2.Get("cold", 0); !found {
		t.Fatal("cold key lost through compaction")
	}
}

// readTree returns every file under dir by name, for byte-identity checks.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tree := make(map[string][]byte)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		tree[e.Name()] = b
	}
	return tree
}

// TestFileTornTailTruncated damages a closed store one way per row. A bad
// frame at the tail of the active segment is the torn batch of a crash: Open
// drops it and keeps everything before it. A bad frame in a sealed segment,
// or a directory in the JSON-lines format that preceded CRC frames, is
// refused with the directory left byte-identical.
func TestFileTornTailTruncated(t *testing.T) {
	torn, err := encodeFrame(opPut, "torn", []byte("partial-value"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := func(i int) []byte {
		b := append([]byte(nil), torn...)
		b[i] ^= 0x10
		return b
	}
	const sealed, active = "seg-00000001.rec", "seg-00000002.rec"
	appendActive := func(tail []byte) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			f, err := os.OpenFile(filepath.Join(dir, active), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
		}
	}
	sealedFirst, err := encodeFrame(opPut, "a", []byte("whole"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		refuse string // non-empty: Open must fail with an error containing it
	}{
		{name: "torn header", damage: appendActive(torn[:5])},
		{name: "torn body", damage: appendActive(torn[:len(torn)-5])},
		{name: "bit-flipped tail", damage: appendActive(flipped(len(torn) - 1))},
		{name: "flipped length byte", damage: appendActive(flipped(9))},
		{
			name: "flipped bit in a sealed segment",
			damage: func(t *testing.T, dir string) {
				path := filepath.Join(dir, sealed)
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(sealedFirst)+frameHeader+5] ^= 0x01 // inside the second frame's payload
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			refuse: fmt.Sprintf("%s at offset %d", sealed, len(sealedFirst)),
		},
		{
			name: "JSON-lines directory of the parent format",
			damage: func(t *testing.T, dir string) {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				line := `{"op":"put","key":"a","val":"d2hvbGU="}` + "\n"
				if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), []byte(line+line[:20]), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			refuse: "seg-00000001.log, a JSON-lines segment",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "segs")
			// "a" and the padding seal segment 1; "last" sits in the active one.
			opts := Options{segmentMaxBytes: 64, compactAfterSegments: 100}
			s, err := OpenFile(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range [][2]string{{"a", "whole"}, {"pad", strings.Repeat("x", 64)}, {"last", "kept"}} {
				if _, err := s.Put(kv[0], []byte(kv[1])); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			before := readTree(t, dir)

			s2, err := OpenFile(dir, opts)
			if tc.refuse != "" {
				if err == nil {
					s2.Close()
					t.Fatal("Open of a damaged store succeeded")
				}
				if !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("Open error = %q, want it to contain %q", err, tc.refuse)
				}
				if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
					t.Fatal("refused Open modified the store directory")
				}
				return
			}
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			for _, key := range []string{"a", "last"} {
				if _, _, found, _ := s2.Get(key, 0); !found {
					t.Fatalf("intact record %q lost with the torn tail", key)
				}
			}
			if _, _, found, _ := s2.Get("torn", 0); found {
				t.Fatal("torn record survived")
			}
			// The truncated store accepts writes again, and they land on a
			// clean frame boundary.
			if _, err := s2.Put("b", []byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := OpenFile(dir, opts)
			if err != nil {
				t.Fatalf("reopen after truncation: %v", err)
			}
			defer s3.Close()
			for _, key := range []string{"last", "b"} {
				if _, _, found, _ := s3.Get(key, 0); !found {
					t.Fatalf("record %q lost across truncation and reopen", key)
				}
			}
		})
	}
}

func TestGroupCommitBatches(t *testing.T) {
	// Many concurrent writers against the file backend must need far fewer
	// fsyncs than writes: batches form while a flush is in flight.
	s, err := OpenFile(filepath.Join(t.TempDir(), "segs"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, per = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Put(fmt.Sprintf("w%d", w), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Appends != writers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*per)
	}
	if st.Flushes >= st.Appends {
		t.Fatalf("group commit ineffective: %d flushes for %d appends", st.Flushes, st.Appends)
	}
	if st.Batched == 0 {
		t.Fatal("no append ever shared a batch")
	}
	if st.PendingFlush != 0 {
		t.Fatalf("pendingFlush = %d after all writes acked", st.PendingFlush)
	}
}

// TestFlushErrorPoisons pins the sticky failure of the group commit: the
// round that fails answers every writer aboard with the error, async riders
// included, and so does every later append and Sync (which is what Close
// drains with) — nothing is acknowledged after a write that may not be on
// disk.
func TestFlushErrorPoisons(t *testing.T) {
	boom := fmt.Errorf("disk gone")
	var fail bool
	c := newCommitter(newCounters(nil), func([]byte) error {
		if fail {
			return boom
		}
		return nil
	})
	first, err := c.append([]byte("a"))
	if err != nil || c.commit(first, true) != nil {
		t.Fatalf("healthy round failed: %v", err)
	}
	fail = true
	rider, _ := c.append([]byte("b"))
	if err := c.commit(rider, false); err != nil {
		t.Fatalf("async append flushed by itself: %v", err)
	}
	waiter, _ := c.append([]byte("c"))
	if err := c.commit(waiter, true); err != boom {
		t.Fatalf("commit over a failing flush = %v, want the flush error", err)
	}
	fail = false // the error is sticky, not retried
	if _, err := c.append([]byte("d")); err != boom {
		t.Fatalf("append after a failed flush = %v, want the flush error", err)
	}
	if err := c.commit(first, true); err != nil {
		t.Fatalf("mutation durable before the failure now reports %v", err)
	}
	if err := c.sync(); err != boom {
		t.Fatalf("sync after a failed flush = %v, want the flush error", err)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	for _, kind := range backends {
		t.Run(kind, func(t *testing.T) {
			s := openBackend(t, kind, t.TempDir(), Options{})
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put("k", []byte("v")); err == nil {
				t.Fatal("Put on closed store succeeded")
			}
			// Close is idempotent.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenDSN(t *testing.T) {
	for bad, want := range map[string]string{
		"":           "no scheme",
		"mem":        "no scheme",
		"mem:extra":  "takes no path",
		"file:":      "needs a directory",
		"bolt:x":     `unknown backend "bolt" (want mem or file)`,
		"redis:host": "unknown backend",
	} {
		s, err := Open(bad, Options{})
		if err == nil {
			s.Close()
			t.Fatalf("Open(%q) succeeded", bad)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Open(%q) error = %q, want it to contain %q", bad, err, want)
		}
	}
}

// TestBackendEquivalence drives both backends and a fenced handle through
// the same random op sequence — including reopens of the durable one — and
// requires observationally identical results throughout, with Memory as the
// reference semantics, and each write's value kept though its caller reuses
// the buffer.
func TestBackendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	dirs := map[string]string{"file": t.TempDir()}
	ref := NewMemory(Options{})
	defer ref.Close()
	opts := Options{segmentMaxBytes: 1024, compactAfterSegments: 2}
	stores := map[string]Store{
		"file":   openBackend(t, "file", dirs["file"], opts),
		"fenced": NewFenced(NewMemory(Options{})),
	}
	// write calls one mutation with a buffer of its own, scribbles on the
	// buffer once the call returns and checks the store kept the value it was
	// given: every backend copies a value before Put, PutAsync or Replace
	// returns.
	write := func(step int, kind string, s Store, op string, key string, val []byte) int {
		t.Helper()
		buf := append([]byte(nil), val...)
		var ver int
		var err error
		switch op {
		case "Put":
			ver, err = s.Put(key, buf)
		case "PutAsync":
			ver, err = s.PutAsync(key, buf)
		default:
			ver, err = s.Replace(key, buf)
		}
		if err != nil {
			t.Fatalf("step %d: %s %s(%q): %v", step, kind, op, key, err)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if got, _, found, err := s.Get(key, ver); err != nil || !found || !bytes.Equal(got, val) {
			t.Fatalf("step %d: %s kept %q after the caller reused the buffer of %s(%q, %q)", step, kind, got, op, key, val)
		}
		return ver
	}
	// get reads one version, scribbles on the value it got and reads it
	// again: every backend's Get returns a copy the caller owns.
	get := func(step int, kind string, s Store, key string, ver int) ([]byte, int, bool) {
		t.Helper()
		val, gv, found, err := s.Get(key, ver)
		if err != nil {
			t.Fatalf("step %d: %s Get: %v", step, kind, err)
		}
		kept := append([]byte(nil), val...)
		for i := range val {
			val[i] = 'X'
		}
		if again, _, _, err := s.Get(key, ver); err != nil || !bytes.Equal(again, kept) {
			t.Fatalf("step %d: %s Get(%q, %d) = %q after the caller wrote to %q it got before", step, kind, key, ver, again, kept)
		}
		return kept, gv, found
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	reopen := func(kind string) {
		if err := stores[kind].Close(); err != nil {
			t.Fatalf("close %s: %v", kind, err)
		}
		stores[kind] = openBackend(t, kind, dirs[kind], opts)
	}

	keys := []string{"journal/T-1", "journal/T-2", "checkpoint/T-1", "meta", "x"}
	for step := 0; step < 400; step++ {
		key := keys[rng.Intn(len(keys))]
		switch op := rng.Intn(11); {
		case op < 5: // put, durable or not
			val := []byte(fmt.Sprintf("s%d-%d", step, rng.Int63()))
			put := []string{"Put", "PutAsync"}[rng.Intn(2)]
			wantVer := write(step, "mem", ref, put, key, val)
			for kind, s := range stores {
				if ver := write(step, kind, s, put, key, val); ver != wantVer {
					t.Fatalf("step %d: %s %s(%q) = %d, want %d", step, kind, put, key, ver, wantVer)
				}
			}
		case op < 7: // get random version (0 = latest)
			_, maxVer, _, _ := ref.Get(key, 0)
			ver := 0
			if maxVer > 0 && rng.Intn(2) == 0 {
				ver = 1 + rng.Intn(maxVer)
			}
			wantVal, wantVer, wantFound := get(step, "mem", ref, key, ver)
			for kind, s := range stores {
				val, gv, found := get(step, kind, s, key, ver)
				if found != wantFound || gv != wantVer || !bytes.Equal(val, wantVal) {
					t.Fatalf("step %d: %s Get(%q, %d) = (%q, %d, %v), want (%q, %d, %v)",
						step, kind, key, ver, val, gv, found, wantVal, wantVer, wantFound)
				}
			}
		case op < 8: // delete
			if err := ref.Delete(key); err != nil {
				t.Fatal(err)
			}
			for kind, s := range stores {
				if err := s.Delete(key); err != nil {
					t.Fatalf("step %d: %s Delete: %v", step, kind, err)
				}
			}
		case op < 9: // replace: history collapses to a single version 1
			val := []byte(fmt.Sprintf("r%d-%d", step, rng.Int63()))
			wantVer := write(step, "mem", ref, "Replace", key, val)
			for kind, s := range stores {
				if ver := write(step, kind, s, "Replace", key, val); ver != wantVer {
					t.Fatalf("step %d: %s Replace(%q) = %d, want %d", step, kind, key, ver, wantVer)
				}
			}
		case op < 10: // list
			want := ref.Keys("journal/")
			for kind, s := range stores {
				if got := s.Keys("journal/"); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: %s Keys = %v, want %v", step, kind, got, want)
				}
			}
		default: // reopen the durable backend: state must survive
			reopen("file")
		}
	}
	// Final full-state comparison.
	for _, key := range keys {
		_, maxVer, _, _ := ref.Get(key, 0)
		for v := 1; v <= maxVer; v++ {
			wantVal, _, _, _ := ref.Get(key, v)
			for kind, s := range stores {
				val, _, found, err := s.Get(key, v)
				if err != nil || !found || !bytes.Equal(val, wantVal) {
					t.Fatalf("final: %s Get(%q, %d) = (%q, %v, %v), want %q", kind, key, v, val, found, err, wantVal)
				}
			}
		}
	}
}

// TestCopyDurableIsConsistent asserts the clone a mid-write CopyDurable
// produces always opens cleanly and contains every acknowledged write.
func TestCopyDurableIsConsistent(t *testing.T) {
	for _, kind := range backends[1:] { // the durable ones
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			s := openBackend(t, kind, dir, Options{segmentMaxBytes: 512, compactAfterSegments: 2})
			defer s.Close()

			var acked sync.Map
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						key := fmt.Sprintf("w%d-%d", w, i)
						if _, err := s.Put(key, []byte("payload")); err != nil {
							return
						}
						acked.Store(key, true)
					}
				}(w)
			}

			// Take crash images while writes are in flight.
			clone := filepath.Join(t.TempDir(), "clone")
			for i := 0; i < 5; i++ {
				target := fmt.Sprintf("%s-%d", clone, i)
				if err := s.(DurableCopier).CopyDurable(target); err != nil {
					t.Errorf("CopyDurable: %v", err)
				}
			}
			close(stop)
			wg.Wait()

			// The final image (taken after all writes are acked) must hold
			// every acknowledged key.
			final := clone + "-final"
			if err := s.(DurableCopier).CopyDurable(final); err != nil {
				t.Fatal(err)
			}
			c, err := OpenFile(final, Options{})
			if err != nil {
				t.Fatalf("open crash image: %v", err)
			}
			defer c.Close()
			acked.Range(func(k, _ any) bool {
				if _, _, found, _ := c.Get(k.(string), 0); !found {
					t.Errorf("acked key %s missing from crash image", k)
					return false
				}
				return true
			})

			// Mid-flight images must at least open and replay cleanly.
			for i := 0; i < 5; i++ {
				target := fmt.Sprintf("%s-%d", clone, i)
				mid, err := OpenFile(target, Options{})
				if err != nil {
					t.Fatalf("open mid-flight image %d: %v", i, err)
				}
				mid.Close()
			}
		})
	}
}
