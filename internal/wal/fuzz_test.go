package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Recovery reads whatever a crash, a disk fault or an operator left in the
// directory. The fuzz targets feed arbitrary bytes to Open as a segment or a
// snapshot file and require: no panic; the records handed back are exactly
// the ones a reference decoder, written here from the package comment, finds;
// a directory that starts with the old framing is refused and left as it was;
// and a second Open of the same directory agrees with the first byte for byte
// (the first one's truncation is idempotent). The committed corpus under
// testdata/fuzz (run by plain `go test` too) holds the shapes recovery is
// built for: empty, two good records, a torn header, a torn payload, a bad
// CRC mid-segment, a length at and over maxRecordBytes, an empty record (which
// is also a valid empty snapshot), and two records of the old framing.

var refTable = crc32.MakeTable(crc32.Castagnoli)

// refFrame encodes payload as record seq: a 4-byte little-endian length, a
// 4-byte little-endian CRC32C of the payload followed by seq as 8
// little-endian bytes, then the payload. old leaves seq out of the CRC: the
// framing written before the CRC covered it.
func refFrame(payload []byte, seq uint64, old bool) []byte {
	covered := binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), seq)
	if old {
		covered = payload
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(covered, refTable))
	return append(buf, payload...)
}

// refDecode walks raw as records seq, seq+1, …, up to the first frame that is
// not whole or is not refFrame's encoding of its payload at its seq, and
// returns the records and that frame's offset. (Fuzzed files are far below
// maxRecordBytes, so the length bound never decides.)
func refDecode(raw []byte, seq uint64) (records [][]byte, end int) {
	for ; len(raw)-end >= 8; seq++ {
		n := int(binary.LittleEndian.Uint32(raw[end:]))
		if n > len(raw)-end-8 || !bytes.Equal(raw[end:end+8+n], refFrame(raw[end+8:end+8+n], seq, false)) {
			break
		}
		records = append(records, raw[end+8:end+8+n])
		end += 8 + n
	}
	return records, end
}

// refOld reports whether raw, read as record seq, starts with a whole frame
// of the old framing instead: a file Open refuses.
func refOld(raw []byte, seq uint64) bool {
	if recs, _ := refDecode(raw, seq); len(recs) > 0 || len(raw) < 8 {
		return false
	}
	n := int(binary.LittleEndian.Uint32(raw))
	return n <= len(raw)-8 && bytes.Equal(raw[:8+n], refFrame(raw[8:8+n], 0, true))
}

// checkFramed requires every record recovery returned from raw to be the
// frame at its place, whole, with the CRC of its payload and its seq: seq,
// seq+1, and so on.
func checkFramed(t *testing.T, raw []byte, seq uint64, got [][]byte) {
	t.Helper()
	want, _ := refDecode(raw, seq)
	if len(got) > len(want) {
		t.Fatalf("%d records returned, only %d frames from seq %d decode", len(got), len(want), seq)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d (seq %d) is not the frame at its place", i, seq+uint64(i))
		}
	}
}

// dirBytes reads every file in dir by name.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name := range dirFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// openTwice recovers dir twice and returns what both Opens agreed on; nil
// when Open refuses the directory, which it must leave as it was.
func openTwice(t *testing.T, dir string) *Recovered {
	t.Helper()
	before := dirBytes(t, dir)
	l, first, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		// Refusing a directory (a segment gap, the old framing) is an
		// answer; panicking, or repairing what it refuses, is not.
		if !reflect.DeepEqual(before, dirBytes(t, dir)) {
			t.Fatalf("Open refused the directory (%v) and changed it", err)
		}
		return nil
	}
	l.Close()
	l2, second, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatalf("second Open failed after the first succeeded: %v", err)
	}
	l2.Close()
	if !bytes.Equal(first.Snapshot, second.Snapshot) || first.SnapshotSeq != second.SnapshotSeq ||
		len(first.Records) != len(second.Records) {
		t.Fatalf("two Opens disagree: snapshot %q@%d + %d records, then %q@%d + %d records",
			first.Snapshot, first.SnapshotSeq, len(first.Records),
			second.Snapshot, second.SnapshotSeq, len(second.Records))
	}
	for i := range first.Records {
		if !bytes.Equal(first.Records[i], second.Records[i]) {
			t.Fatalf("two Opens disagree on record %d", i)
		}
	}
	if second.TruncatedBytes != 0 || second.DroppedSegments != 0 {
		t.Fatalf("second Open still repairing: %+v", second)
	}
	return first
}

func FuzzRecoverSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first := openTwice(t, dir)
		if refuse := refOld(data, 1); refuse != (first == nil) {
			t.Fatalf("Open refused = %v, want %v for a segment that starts at seq 1", first == nil, refuse)
		}
		if first == nil {
			return
		}
		checkFramed(t, data, 1, first.Records)
		if want, _ := refDecode(data, 1); len(first.Records) != len(want) {
			t.Fatalf("recovered %d records, %d decode", len(first.Records), len(want))
		}
	})
}

func FuzzRecoverSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// An older valid snapshot and the records after it: what recovery
		// must fall back to when the fuzzed, newer snapshot does not decode.
		l, _, err := Open(dir, Options{Fsync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := l.Append([]byte("before")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Snapshot([]byte("state@2")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000004.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first := openTwice(t, dir)
		want, _ := refDecode(data, 4)
		switch {
		case len(want) > 0:
			// The fuzzed file's first frame is record 4; whatever follows
			// it is a recycled file's stale bytes.
			if first == nil || first.SnapshotSeq != 4 || len(first.Records) != 1 {
				t.Fatalf("a snapshot whose first frame decodes was not used: %+v", first)
			}
			checkFramed(t, data, 4, [][]byte{first.Snapshot})
		case refOld(data, 4):
			if first != nil {
				t.Fatalf("Open read a snapshot of the old framing: %q@%d", first.Snapshot, first.SnapshotSeq)
			}
		case first == nil:
			t.Fatal("Open refused a directory whose older snapshot and segments are intact")
		case string(first.Snapshot) != "state@2" || first.SnapshotSeq != 2 || len(first.Records) != 3:
			t.Fatalf("fallback = %q@%d + %d records, want state@2@2 + 3", first.Snapshot, first.SnapshotSeq, len(first.Records))
		}
	})
}

// FuzzRecoverRecycled writes new records over recycled files, as rotation and
// Snapshot do, and recovers the directory. Either shape starts from a valid
// snapshot at seq 2 (state@2), and the stale bytes past what was written
// are old's:
//
//   - snapshot unset: n%16 records from seq 3 (record i is byte i, then
//     payload) go into one segment over old, or, when 0 < split%(n%16+1) <
//     n%16, that many into a segment that was rotated past and the rest into
//     the next, each over old. The active segment is torn after cut bytes.
//   - snapshot set: n%16+1 records from seq 3 in a fresh segment, and a
//     snapshot of payload covering them written over old, torn after cut
//     bytes.
//
// What Open recovers must be what the reference decoder finds, and nothing
// written whole may be lost unless the directory is refused.
func FuzzRecoverRecycled(f *testing.F) {
	var lives []byte // a spare's previous life: 14 long records from seq 1
	for seq := uint64(1); seq <= 14; seq++ {
		lives = append(lives, refFrame(bytes.Repeat([]byte{'L'}, 30), seq, false)...)
	}
	f.Add(lives, []byte("record"), uint8(12), uint8(5), uint16(0xffff), false) // TestRecycledTailNeverDecodes
	f.Add(lives, []byte("record"), uint8(12), uint8(0), uint16(40), false)     // torn mid-record
	f.Add(lives, []byte("state"), uint8(3), uint8(0), uint16(0xffff), true)    // whole snapshot over snap.spare
	f.Add(refFrame([]byte("state@1, the snapshot before"), 1, false), []byte("state"), uint8(3), uint8(0), uint16(5), true)
	f.Fuzz(func(t *testing.T, old, payload []byte, n, split uint8, cut uint16, snapshot bool) {
		dir := t.TempDir()
		write := func(name string, data []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		over := func(data []byte, cut int) []byte { // data written over old, torn after cut bytes
			c := min(cut, len(data))
			return append(append([]byte(nil), data[:c]...), old[min(c, len(old)):]...)
		}
		write("snap-0000000000000002.snap", refFrame([]byte("state@2"), 2, false))
		k := int(n % 16)
		if snapshot {
			k++
		}
		var written [][]byte
		encode := func(from, to int) (data []byte) {
			for i := from; i < to; i++ {
				written = append(written, append([]byte{byte(i)}, payload...))
				data = append(data, refFrame(written[i], uint64(3+i), false)...)
			}
			return data
		}
		type seg struct {
			first uint64
			data  []byte
		}
		var segs []seg // oldest first
		whole := 0     // records written whole
		if snapshot {
			segs, whole = []seg{{3, encode(0, k)}}, k
		} else {
			if j := int(split) % (k + 1); j > 0 && j < k {
				segs, whole = []seg{{3, over(encode(0, j), math.MaxInt)}}, j // rotated past
			}
			from := len(written)
			data := encode(from, k)
			segs = append(segs, seg{uint64(3 + from), over(data, int(cut))})
			recs, _ := refDecode(data[:min(int(cut), len(data))], uint64(3+from))
			whole += len(recs)
		}
		for _, s := range segs {
			write(fmt.Sprintf("seg-%016x.wal", s.first), s.data)
		}

		// The reference: recovery as the package comment describes it.
		wantSnap, wantSeq, refused := []byte("state@2"), uint64(2), refOld(segs[0].data, 3)
		var wantRecs [][]byte
		if snapshot {
			frame := refFrame(payload, uint64(2+k), false)
			snap := over(frame, int(cut))
			write(fmt.Sprintf("snap-%016x.snap", 2+k), snap)
			if recs, _ := refDecode(snap, uint64(2+k)); len(recs) > 0 {
				wantSnap, wantSeq = recs[0], uint64(2+k)
			} else if refOld(snap, uint64(2+k)) {
				refused = true
			} else {
				wantRecs = written
			}
			if int(cut) >= len(frame) && wantSeq != uint64(2+k) {
				t.Fatal("reference rejects a snapshot written whole")
			}
		} else {
			seq := uint64(2)
			for i, s := range segs {
				if s.first != seq+1 {
					refused = true // a stale frame decoded at the next segment's first seq
					break
				}
				recs, end := refDecode(s.data, seq+1)
				wantRecs, seq = append(wantRecs, recs...), seq+uint64(len(recs))
				if end < len(s.data) && (i+1 == len(segs) || segs[i+1].first != seq+1) {
					break // torn: what follows is dropped
				}
			}
		}

		got := openTwice(t, dir)
		if refused != (got == nil) {
			t.Fatalf("Open refused = %v, the reference %v", got == nil, refused)
		}
		if got == nil {
			return
		}
		if !bytes.Equal(got.Snapshot, wantSnap) || got.SnapshotSeq != wantSeq {
			t.Fatalf("snapshot %q@%d, the reference %q@%d", got.Snapshot, got.SnapshotSeq, wantSnap, wantSeq)
		}
		if len(got.Records) != len(wantRecs) {
			t.Fatalf("recovered %d records, the reference %d", len(got.Records), len(wantRecs))
		}
		for i := range got.Records {
			if !bytes.Equal(got.Records[i], wantRecs[i]) {
				t.Fatalf("record %d differs from the reference", i)
			}
		}
		if wantSeq == 2 && len(got.Records) < whole {
			t.Fatalf("%d records written whole, %d recovered", whole, len(got.Records))
		}
	})
}
