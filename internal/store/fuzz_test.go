package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// FuzzFrameScan feeds arbitrary bytes to the one frame scanner. Whatever the
// input, scan must not panic, must not allocate more than the input length
// plus a constant (a corrupt length field is bounded by the bytes actually
// present), and must yield only frames whose checksum verifies — checked by
// re-encoding every yielded record and requiring the result to be exactly
// the valid prefix scan reported. encode → scan must also round-trip.
func FuzzFrameScan(f *testing.F) {
	valid, err := encodeFrame(opPut, "k", []byte("value"))
	if err != nil {
		f.Fatal(err)
	}
	flipped := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x04
		return b
	}
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[7:], 0xFFFFFFFF)
	for _, seed := range [][]byte{
		nil,                         // empty
		valid[:5],                   // torn header
		valid[:len(valid)-2],        // torn body
		flipped(len(valid) - 1),     // flipped payload bit
		flipped(7),                  // flipped length byte
		huge,                        // vlen = 0xFFFFFFFF
		append(valid, "garbage"...), // valid frame + garbage
		append(valid, valid...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		good, err := scan(bytes.NewReader(data), int64(len(data)), func(byte, string, []byte) {})
		runtime.ReadMemStats(&after)
		// 64 KiB is scan's key buffer; as much again is slack for whatever
		// else the test process allocates meanwhile. An unbounded length
		// field would ask for up to 4 GiB.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data))+(128<<10); got > limit {
			t.Fatalf("scan of %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if (err == nil) != (good == int64(len(data))) || (err != nil && !errors.Is(err, errBadFrame)) {
			t.Fatalf("scan = (%d, %v) on %d bytes", good, err, len(data))
		}

		var reenc []byte
		again, _ := scan(bytes.NewReader(data), int64(len(data)), func(op byte, key string, val []byte) {
			enc, err := encodeFrame(op, key, val)
			if err != nil {
				t.Fatalf("scan yielded a record encodeFrame rejects: %v", err)
			}
			reenc = append(reenc, enc...)
		})
		if again != good || !bytes.Equal(reenc, data[:good]) {
			t.Fatalf("yielded records re-encode to %d bytes, not the %d-byte valid prefix", len(reenc), good)
		}

		enc, err := encodeFrame(opRep, "key", data)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		end, err := scan(bytes.NewReader(enc), int64(len(enc)), func(op byte, key string, val []byte) {
			n++
			if op != opRep || key != "key" || !bytes.Equal(val, data) {
				t.Fatalf("round trip yielded (%d, %q, %d bytes)", op, key, len(val))
			}
		})
		if err != nil || end != int64(len(enc)) || n != 1 {
			t.Fatalf("round trip scan = (%d, %v), %d records", end, err, n)
		}
	})
}
