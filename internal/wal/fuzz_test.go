package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// Recovery reads whatever a crash, a disk fault or an operator left in the
// directory. The fuzz targets feed arbitrary bytes to Open as a segment or a
// snapshot file and require: no panic; every record handed back passes the
// CRC its frame carried; and a second Open of the same directory agrees with
// the first byte for byte (the first one's truncation is idempotent). The
// committed corpus under testdata/fuzz (run by plain `go test` too) holds the
// shapes recovery is built for: empty, two good records, a torn header, a torn
// payload, a bad CRC mid-segment, a length at and over maxRecordBytes, and an
// empty record (which is also a valid empty snapshot).

// checkFramed re-derives what recovery may have returned from raw: walking
// the frames independently, every payload must be the next CRC-valid record.
func checkFramed(t *testing.T, raw []byte, got [][]byte) {
	t.Helper()
	off := 0
	for i, payload := range got {
		if len(raw)-off < headerSize {
			t.Fatalf("record %d returned past the end of the file", i)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if n != len(payload) || n > len(raw)-off-headerSize || !bytes.Equal(raw[off+headerSize:off+headerSize+n], payload) {
			t.Fatalf("record %d is not the frame at offset %d", i, off)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			t.Fatalf("record %d returned despite failing its CRC", i)
		}
		off += headerSize + n
	}
}

// openTwice recovers dir twice and returns what both Opens agreed on; nil
// when Open refuses the directory.
func openTwice(t *testing.T, dir string) *Recovered {
	t.Helper()
	l, first, err := Open(dir, Options{Fsync: SyncNever})
	if err != nil {
		return nil // refusing a directory (a segment gap) is an answer; panicking is not
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
		if first == nil {
			t.Fatal("Open refused a directory holding one segment that starts at seq 1")
		}
		checkFramed(t, data, first.Records)
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
		if first == nil {
			t.Fatal("Open refused a directory whose older snapshot and segments are intact")
		}
		if first.SnapshotSeq == 4 {
			// The fuzzed file was accepted: it must be exactly one valid frame.
			checkFramed(t, data, [][]byte{first.Snapshot})
			if len(data) != headerSize+len(first.Snapshot) || len(first.Records) != 1 {
				t.Fatalf("accepted a %d-byte snapshot with payload %d, %d records after it",
					len(data), len(first.Snapshot), len(first.Records))
			}
		} else if string(first.Snapshot) != "state@2" || first.SnapshotSeq != 2 || len(first.Records) != 3 {
			t.Fatalf("fallback = %q@%d + %d records, want state@2@2 + 3", first.Snapshot, first.SnapshotSeq, len(first.Records))
		}
	})
}
