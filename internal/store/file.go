package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File is the append-only segmented backend. Every mutation is one
// CRC-checked frame appended to the active segment through the group
// commit; the live state is kept in memory (reads never touch the disk),
// so the segments are purely the durability log:
//
//	dir/seg-00000003.rec    sealed segments (immutable, fully fsynced)
//	dir/seg-00000004.rec    the active segment (append + group fsync)
//	dir/snap-00000002.rec   at most one snapshot: the fold of every segment
//	                        with index <= 2, written by compaction
//
// Segments and snapshots share one record frame,
//
//	[u32 crc][u8 op][u16 klen][u32 vlen][key][value]
//
// little-endian, with the CRC-32 (IEEE) covering everything after itself.
//
// The active segment rotates once it outgrows segmentMaxBytes; when enough
// sealed segments accumulate, compaction folds them (and the previous
// snapshot) into a fresh snapshot and deletes them. Compaction reads only
// sealed files — never the live map — so it cannot observe a mutation whose
// fsync is still in flight, and a crash at any point leaves either the old
// or the new snapshot intact.
//
// On open, the first bad frame in the active segment marks the torn batch a
// kill left behind and the segment is truncated there; a bad frame in a
// sealed segment or a snapshot is an error naming the file and offset.
type File struct {
	dir   string
	opts  Options
	stats *counters
	c     *committer

	mu     sync.RWMutex // guards data and closed
	data   map[string][][]byte
	closed bool

	fileMu  sync.Mutex // guards the segment metadata below
	sealed  []segment  // sealed segments, ascending index
	snap    *segment   // current snapshot, nil when none
	active  *os.File
	actIdx  int
	actSize int64 // bytes written to the active segment
	durable int64 // bytes of the active segment known fsynced
}

// segment is one immutable on-disk file.
type segment struct {
	path string
	idx  int
	size int64
}

// File name patterns, shared by the directory scan and the path builders.
const (
	segPattern  = "seg-%08d.rec"
	snapPattern = "snap-%08d.rec"
)

// Frame op codes.
const (
	opPut byte = 1
	opDel byte = 2
	opRep byte = 3 // replace: drop all versions, write value as v1

	frameHeader = 4 + 1 + 2 + 4 // crc + op + klen + vlen
)

// errBadFrame marks a frame that is torn or fails its checks, as opposed to
// an I/O error while reading one.
var errBadFrame = errors.New("bad frame")

// encodeFrame frames one mutation.
func encodeFrame(op byte, key string, val []byte) ([]byte, error) {
	if key == "" {
		return nil, fmt.Errorf("store: empty key")
	}
	if len(key) > math.MaxUint16 {
		return nil, fmt.Errorf("store: key longer than 64KiB")
	}
	if uint64(len(val)) > math.MaxUint32 {
		return nil, fmt.Errorf("store: value longer than 4GiB")
	}
	buf := make([]byte, frameHeader+len(key)+len(val))
	buf[4] = op
	binary.LittleEndian.PutUint16(buf[5:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[7:], uint32(len(val)))
	copy(buf[frameHeader:], key)
	copy(buf[frameHeader+len(key):], val)
	binary.LittleEndian.PutUint32(buf[0:], crc32.ChecksumIEEE(buf[4:]))
	return buf, nil
}

// scan reads frames from r, which holds size bytes, and hands each one that
// passes its checks to fn. It returns the length of the valid prefix; the
// error is nil at a clean end, wraps errBadFrame when the frame at that
// offset is torn or corrupt, and is the read error otherwise. Whether a
// frame is torn is decided from size alone, before anything is read or
// allocated, so a corrupt length field cannot ask for more memory than the
// file holds.
func scan(r io.Reader, size int64, fn func(op byte, key string, val []byte)) (int64, error) {
	var hdr [frameHeader]byte
	keyBuf := make([]byte, math.MaxUint16) // the largest key a frame can carry
	var offset int64
	for offset < size {
		if size-offset < frameHeader {
			return offset, fmt.Errorf("%w: torn header", errBadFrame)
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return offset, err
		}
		op := hdr[4]
		klen := int(binary.LittleEndian.Uint16(hdr[5:]))
		vlen := int64(binary.LittleEndian.Uint32(hdr[7:]))
		if int64(klen)+vlen > size-offset-frameHeader {
			return offset, fmt.Errorf("%w: body runs past the end of the file", errBadFrame)
		}
		key := keyBuf[:klen]
		val := make([]byte, vlen)
		if _, err := io.ReadFull(r, key); err != nil {
			return offset, err
		}
		if _, err := io.ReadFull(r, val); err != nil {
			return offset, err
		}
		crc := crc32.ChecksumIEEE(hdr[4:])
		crc = crc32.Update(crc, crc32.IEEETable, key)
		crc = crc32.Update(crc, crc32.IEEETable, val)
		if crc != binary.LittleEndian.Uint32(hdr[0:]) {
			return offset, fmt.Errorf("%w: checksum mismatch", errBadFrame)
		}
		if klen == 0 || (op != opPut && op != opDel && op != opRep) {
			return offset, fmt.Errorf("%w: unknown op %d or empty key", errBadFrame, op)
		}
		fn(op, string(key), val)
		offset += frameHeader + int64(klen) + vlen
	}
	return offset, nil
}

// fold applies one mutation to a versioned map; the live write path, the
// open-time replay and compaction all go through it.
func fold(m map[string][][]byte, op byte, key string, val []byte) {
	switch op {
	case opPut:
		m[key] = append(m[key], val)
	case opRep:
		m[key] = [][]byte{val}
	case opDel:
		delete(m, key)
	}
}

// replay folds the frames of one file into m. It returns the length of the
// valid prefix and, for a bad frame or read error, an error naming the file
// and that offset.
func replay(m map[string][][]byte, path string) (int64, error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil {
		return 0, err
	}
	good, err := scan(bufio.NewReaderSize(file, 1<<16), info.Size(), func(op byte, key string, val []byte) {
		fold(m, op, key, val)
	})
	if err != nil {
		return good, fmt.Errorf("store: %s at offset %d: %w", path, good, err)
	}
	return good, nil
}

// OpenFile opens (or initializes) a segmented file store rooted at dir.
func OpenFile(dir string, opts Options) (*File, error) {
	if opts.segmentMaxBytes <= 0 {
		opts.segmentMaxBytes = DefaultSegmentMaxBytes
	}
	if opts.compactAfterSegments <= 0 {
		opts.compactAfterSegments = DefaultCompactAfterSegments
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: file backend: %w", err)
	}
	f := &File{
		dir:   dir,
		opts:  opts,
		stats: newCounters(opts.Telemetry),
		data:  make(map[string][][]byte),
	}
	if err := f.load(); err != nil {
		return nil, err
	}
	f.c = newCommitter(f.stats, f.flushBatch)
	f.stats.gSegments.Set(float64(f.segmentCount()))
	return f, nil
}

// load scans dir, prunes files superseded by the newest snapshot, replays
// the snapshot and the remaining segments into the live map, and opens the
// active segment.
func (f *File) load() error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return fmt.Errorf("store: file backend: %w", err)
	}
	var segs []segment
	var snaps []segment
	for _, e := range entries {
		name := e.Name()
		if (strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "snap-")) && strings.HasSuffix(name, ".log") {
			// Refused before anything is pruned or truncated: there is no
			// reader for that format, and its records carry no checksum.
			return fmt.Errorf("store: %s holds %s, a JSON-lines segment of the format before CRC frames; this version cannot read it (open an empty directory instead)", f.dir, name)
		}
		var idx int
		var into *[]segment
		if _, err := fmt.Sscanf(name, segPattern, &idx); err == nil && name == filepath.Base(f.segPath(idx)) {
			into = &segs
		} else if _, err := fmt.Sscanf(name, snapPattern, &idx); err == nil && name == filepath.Base(f.snapPath(idx)) {
			into = &snaps
		} else {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		*into = append(*into, segment{path: filepath.Join(f.dir, name), idx: idx, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].idx < snaps[j].idx })

	// Keep only the newest snapshot; older snapshots and any segment it
	// already folded are leftovers of a crash mid-compaction-cleanup.
	if n := len(snaps); n > 0 {
		f.snap = &snaps[n-1]
		for _, s := range snaps[:n-1] {
			if err := os.Remove(s.path); err != nil {
				return err
			}
		}
		kept := segs[:0]
		for _, s := range segs {
			if s.idx <= f.snap.idx {
				if err := os.Remove(s.path); err != nil {
					return err
				}
				continue
			}
			kept = append(kept, s)
		}
		segs = kept
	}

	if f.snap != nil {
		if _, err := replay(f.data, f.snap.path); err != nil {
			return err
		}
	}
	for i, s := range segs {
		good, err := replay(f.data, s.path)
		if err == nil {
			continue
		}
		// Only the active segment may end in the torn batch a crash left
		// behind; drop it. Corruption anywhere else is an error.
		if i != len(segs)-1 || !errors.Is(err, errBadFrame) {
			return err
		}
		if err := os.Truncate(s.path, good); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
		segs[i].size = good
	}

	// The highest segment becomes the active one; with none, start fresh
	// after the snapshot.
	if n := len(segs); n > 0 {
		f.actIdx = segs[n-1].idx
		f.actSize = segs[n-1].size
		f.sealed = segs[:n-1]
	} else {
		f.actIdx = 1
		if f.snap != nil {
			f.actIdx = f.snap.idx + 1
		}
	}
	active, err := os.OpenFile(f.segPath(f.actIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	f.active = active
	f.durable = f.actSize
	return nil
}

func (f *File) segPath(idx int) string {
	return filepath.Join(f.dir, fmt.Sprintf(segPattern, idx))
}

func (f *File) snapPath(idx int) string {
	return filepath.Join(f.dir, fmt.Sprintf(snapPattern, idx))
}

// Kind implements Store.
func (f *File) Kind() string { return "file" }

// mutate is the one write path: frame the mutation, fold it into the live
// map and append the frame to the commit buffer under the ordering mutex (so
// buffer order equals version order), then — unless the caller tolerates
// losing it to a crash — wait for the fsync that carries it. It returns the
// key's version count.
func (f *File) mutate(op byte, key string, value []byte, wait bool) (int, error) {
	enc, err := encodeFrame(op, key, value)
	if err != nil {
		return 0, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, errClosed
	}
	if _, ok := f.data[key]; op == opDel && !ok {
		f.mu.Unlock()
		return 0, nil
	}
	seq, err := f.c.append(enc)
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	// The live map keeps the frame's own copy of the value: enc is never
	// written again once encoded.
	fold(f.data, op, key, enc[frameHeader+len(key):])
	ver := len(f.data[key])
	f.mu.Unlock()
	if err := f.c.commit(seq, wait); err != nil {
		return 0, err
	}
	f.stats.appends.Add(1)
	f.stats.mAppends.Inc()
	return ver, nil
}

// Put implements Store: the call returns once the record is fsynced.
func (f *File) Put(key string, value []byte) (int, error) {
	return f.mutate(opPut, key, value, true)
}

// PutAsync implements Store: the record joins the log (and the live map) in
// call order, but the call returns without waiting for an fsync or starting
// one (short of a backlog of maxUnflushed): it rides the next durable write.
func (f *File) PutAsync(key string, value []byte) (int, error) {
	return f.mutate(opPut, key, value, false)
}

// Replace implements Store: a single "rep" record both discards the key's
// history and writes value as version 1, so the discard and the write share
// one fsync and cannot be torn apart by a crash.
func (f *File) Replace(key string, value []byte) (int, error) {
	return f.mutate(opRep, key, value, true)
}

// Delete implements Store. Deleting an absent key writes nothing.
func (f *File) Delete(key string) error {
	_, err := f.mutate(opDel, key, nil, true)
	return err
}

// Get implements Store; reads are served from the live map.
func (f *File) Get(key string, version int) ([]byte, int, bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	versions := f.data[key]
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
func (f *File) Keys(prefix string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var keys []string
	for k := range f.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Sync implements Store.
func (f *File) Sync() error { return f.c.sync() }

// Stats implements Store.
func (f *File) Stats() Stats {
	f.mu.RLock()
	records := 0
	for _, vs := range f.data {
		records += len(vs)
	}
	s := Stats{Backend: "file", Keys: len(f.data), Records: records}
	f.mu.RUnlock()

	f.fileMu.Lock()
	s.Segments = f.segmentCountLocked()
	s.Bytes = f.actSize
	for _, seg := range f.sealed {
		s.Bytes += seg.size
	}
	if f.snap != nil {
		s.Bytes += f.snap.size
	}
	f.fileMu.Unlock()

	f.stats.fill(&s)
	s.PendingFlush = f.c.pendingCount()
	return s
}

func (f *File) segmentCount() int {
	f.fileMu.Lock()
	defer f.fileMu.Unlock()
	return f.segmentCountLocked()
}

func (f *File) segmentCountLocked() int {
	n := len(f.sealed) + 1 // + active
	if f.snap != nil {
		n++
	}
	return n
}

// Close implements Store: drain the commit buffer, then close the active file.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	err := f.c.sync() // mutate refuses from here on, so this drains for good
	f.fileMu.Lock()
	defer f.fileMu.Unlock()
	if cerr := f.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// CopyDurable implements DurableCopier: dst receives the snapshot, every
// sealed segment, and the fsynced prefix of the active segment — exactly the
// state a kill -9 is guaranteed to leave behind.
func (f *File) CopyDurable(dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	f.fileMu.Lock()
	defer f.fileMu.Unlock()
	files := append([]segment(nil), f.sealed...)
	if f.snap != nil {
		files = append(files, *f.snap)
	}
	files = append(files, segment{path: f.segPath(f.actIdx), size: f.durable})
	for _, s := range files {
		if err := copyPrefix(s.path, filepath.Join(dst, filepath.Base(s.path)), s.size); err != nil {
			return err
		}
	}
	return nil
}

// copyPrefix copies the first n bytes of src to dst.
func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil && err != io.EOF {
		out.Close()
		return err
	}
	return out.Close()
}

// --- flush side -------------------------------------------------------------

// flushBatch persists one group-commit round: one write, one fsync, then
// rotation and compaction bookkeeping. Runs on the round's leader.
func (f *File) flushBatch(buf []byte) error {
	f.fileMu.Lock()
	defer f.fileMu.Unlock()
	if _, err := f.active.Write(buf); err != nil {
		return err
	}
	if err := f.active.Sync(); err != nil {
		return err
	}
	f.actSize += int64(len(buf))
	f.durable = f.actSize

	if f.actSize >= f.opts.segmentMaxBytes {
		if err := f.rotateLocked(); err != nil {
			return err
		}
		if len(f.sealed) >= f.opts.compactAfterSegments {
			if err := f.compactLocked(); err != nil {
				return err
			}
		}
		f.stats.gSegments.Set(float64(f.segmentCountLocked()))
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (f *File) rotateLocked() error {
	if err := f.active.Close(); err != nil {
		return err
	}
	f.sealed = append(f.sealed, segment{path: f.segPath(f.actIdx), idx: f.actIdx, size: f.actSize})
	f.actIdx++
	next, err := os.OpenFile(f.segPath(f.actIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	f.active = next
	f.actSize = 0
	f.durable = 0
	return nil
}

// compactLocked folds the snapshot and every sealed segment into a fresh
// snapshot and deletes them. It reads only immutable, fully fsynced files,
// so the fold can never include a mutation whose fsync is pending.
func (f *File) compactLocked() error {
	live := make(map[string][][]byte)
	var folded []string
	if f.snap != nil {
		folded = append(folded, f.snap.path)
	}
	for _, seg := range f.sealed {
		folded = append(folded, seg.path)
	}
	for _, path := range folded {
		if _, err := replay(live, path); err != nil {
			return fmt.Errorf("store: compaction: %w", err)
		}
	}
	maxIdx := f.sealed[len(f.sealed)-1].idx

	tmp, err := os.CreateTemp(f.dir, ".snap-*")
	if err != nil {
		return err
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	var size int64
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range live[k] {
			enc, err := encodeFrame(opPut, k, v)
			if err != nil {
				return fail(err)
			}
			m, err := w.Write(enc)
			if err != nil {
				return fail(err)
			}
			size += int64(m)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	snapPath := f.snapPath(maxIdx)
	if err := os.Rename(tmp.Name(), snapPath); err != nil {
		return fail(err)
	}
	if err := syncDir(f.dir); err != nil {
		return err
	}
	// The rename is the commit point; the folded files are now garbage.
	for _, path := range folded {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	f.snap = &segment{path: snapPath, idx: maxIdx, size: size}
	f.sealed = nil
	f.stats.noteCompaction()
	return nil
}

// syncDir fsyncs a directory so renames and removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
