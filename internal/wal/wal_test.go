package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, rec *Recovered, from, n int) {
	t.Helper()
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
	for i, p := range rec.Records {
		want := fmt.Sprintf("record-%04d", from+i)
		if string(p) != want {
			t.Fatalf("record %d = %q, want %q", i, p, want)
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	appendN(t, l, 0, 50)
	if l.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	wantRecords(t, rec2, 0, 50)
	if rec2.TruncatedBytes != 0 || rec2.SnapshotSeq != 0 {
		t.Fatalf("unexpected recovery state: %+v", rec2)
	}
	// Appends continue the sequence.
	seq, err := l2.Append([]byte("record-0050"))
	if err != nil || seq != 51 {
		t.Fatalf("Append after reopen = %d, %v; want 51", seq, err)
	}
}

func TestTornTailTruncation(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"torn-header", func(t *testing.T, path string) { appendBytes(t, path, []byte{0x01, 0x02, 0x03}) }},
		{"torn-payload", func(t *testing.T, path string) {
			// A full header promising 100 bytes, then only 5.
			appendBytes(t, path, frame(bytes.Repeat([]byte{'x'}, 100))[:headerSize+5])
		}},
		{"corrupt-crc", func(t *testing.T, path string) {
			buf := frame([]byte("valid-payload"))
			buf[4] ^= 0xff
			appendBytes(t, path, buf)
		}},
		{"absurd-length", func(t *testing.T, path string) {
			buf := frame([]byte("x"))
			buf[3] = 0xff // length claims > maxRecordBytes
			appendBytes(t, path, buf)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Fsync: SyncNever})
			appendN(t, l, 0, 10)
			seg := l.segments[len(l.segments)-1]
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, seg)
			l2, rec := mustOpen(t, dir, Options{})
			defer l2.Close()
			wantRecords(t, rec, 0, 10)
			if rec.TruncatedBytes == 0 {
				t.Fatal("expected torn-tail truncation")
			}
			// The tail is gone for good: append, reopen, everything decodes.
			appendN(t, l2, 10, 5)
			l2.Close()
			l3, rec3 := mustOpen(t, dir, Options{})
			defer l3.Close()
			wantRecords(t, rec3, 0, 15)
			if rec3.TruncatedBytes != 0 {
				t.Fatalf("second recovery still truncating: %+v", rec3)
			}
		})
	}
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestSegmentRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64}) // a few records per segment
	appendN(t, l, 0, 40)
	if got := l.Stats().Segments; got < 5 {
		t.Fatalf("only %d segments after 40 appends at 64-byte rotation", got)
	}
	l.Close()
	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	wantRecords(t, rec, 0, 40)
}

func TestTornMiddleSegmentDropsLaterOnes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64, Fsync: SyncNever})
	appendN(t, l, 0, 40)
	segs := append([]string(nil), l.segments...)
	l.Close()
	// Corrupt a record in the middle segment: recovery keeps the prefix and
	// abandons every later segment.
	mid := segs[len(segs)/2]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	if rec.DroppedSegments == 0 || rec.TruncatedBytes == 0 {
		t.Fatalf("expected dropped segments and truncation: %+v", rec)
	}
	if len(rec.Records) == 0 || len(rec.Records) >= 40 {
		t.Fatalf("recovered %d records, want a strict non-empty prefix of 40", len(rec.Records))
	}
	wantRecords(t, rec, 0, len(rec.Records))
	// The log continues from the recovered prefix.
	seq, err := l2.Append([]byte("after"))
	if err != nil || seq != uint64(len(rec.Records))+1 {
		t.Fatalf("Append = %d, %v; want %d", seq, err, len(rec.Records)+1)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 64})
	appendN(t, l, 0, 30)
	if err := l.Snapshot([]byte("state@30")); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("%d segments after snapshot, want 1 (fresh active)", got)
	}
	appendN(t, l, 30, 10)
	l.Close()

	l2, rec := mustOpen(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	if string(rec.Snapshot) != "state@30" || rec.SnapshotSeq != 30 {
		t.Fatalf("snapshot = %q @ %d, want state@30 @ 30", rec.Snapshot, rec.SnapshotSeq)
	}
	wantRecords(t, rec, 30, 10)
	if l2.LastSeq() != 40 {
		t.Fatalf("LastSeq = %d, want 40", l2.LastSeq())
	}
}

func TestSecondSnapshotReplacesFirst(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 0, 10)
	if err := l.Snapshot([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 10)
	if err := l.Snapshot([]byte("state@20")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, 5)
	l.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshot files, want 1 (older compacted away)", len(snaps))
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state@20" || rec.SnapshotSeq != 20 {
		t.Fatalf("snapshot = %q @ %d", rec.Snapshot, rec.SnapshotSeq)
	}
	wantRecords(t, rec, 20, 5)
}

// A snapshot with nothing written since the last rotation — on a fresh log,
// or a second snapshot at the same seq — leaves the empty active segment in
// place, and the log keeps taking records after it.
func TestSnapshotWithEmptyActiveSegment(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before func(t *testing.T, l *Log)
	}{
		{"fresh log", func(*testing.T, *Log) {}},
		{"repeated snapshot", func(t *testing.T, l *Log) {
			appendN(t, l, 0, 1)
			if err := l.Snapshot([]byte("first")); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Fsync: SyncAlways})
			tc.before(t, l)
			at := l.LastSeq()
			if err := l.Snapshot([]byte("latest")); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				seq, err := l.Write([]byte(fmt.Sprintf("record-%04d", i)))
				if err != nil {
					t.Fatalf("Write after snapshot: %v", err)
				}
				if err := l.Commit(seq); err != nil {
					t.Fatalf("Commit after snapshot: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rec := mustOpen(t, dir, Options{})
			defer l2.Close()
			if string(rec.Snapshot) != "latest" || rec.SnapshotSeq != at {
				t.Fatalf("snapshot = %q @ %d, want \"latest\" @ %d", rec.Snapshot, rec.SnapshotSeq, at)
			}
			wantRecords(t, rec, 0, 2)
		})
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 0, 10)
	if err := l.Snapshot([]byte("state@10")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 10)
	l.Close()
	// Plant a newer, corrupt snapshot claiming to cover seq 20.
	bad := frame([]byte("state@20"))
	bad[4] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 20)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state@10" || rec.SnapshotSeq != 10 {
		t.Fatalf("fallback snapshot = %q @ %d, want state@10 @ 10", rec.Snapshot, rec.SnapshotSeq)
	}
	wantRecords(t, rec, 10, 10)
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		parsed, err := ParseSyncPolicy(p.String())
		if err != nil || parsed != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), parsed, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy accepted bogus")
	}

	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: SyncAlways})
	appendN(t, l, 0, 5)
	if got := l.Stats().Fsyncs; got < 5 {
		t.Fatalf("SyncAlways made %d fsyncs over 5 appends", got)
	}
	l.Close()

	dir2 := t.TempDir()
	l2, _ := mustOpen(t, dir2, Options{Fsync: SyncNever})
	appendN(t, l2, 0, 5)
	if got := l2.Stats().Fsyncs; got != 0 {
		t.Fatalf("SyncNever made %d fsyncs", got)
	}
	l2.Close()

	dir3 := t.TempDir()
	l3, _ := mustOpen(t, dir3, Options{Fsync: SyncInterval, Interval: time.Hour})
	appendN(t, l3, 0, 50)
	if got := l3.Stats().Fsyncs; got > 1 {
		t.Fatalf("SyncInterval(1h) made %d fsyncs over 50 quick appends", got)
	}
	l3.Close()
}

func TestStatsAndEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if seq, err := l.Append(nil); err != nil || seq != 1 {
		t.Fatalf("empty append = %d, %v", seq, err)
	}
	st := l.Stats()
	if st.Appends != 1 || st.AppendedBytes != 0 || st.LastSeq != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 || len(rec.Records[0]) != 0 {
		t.Fatalf("empty record not recovered: %+v", rec)
	}
}

func TestClosedLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append on closed log succeeded")
	}
	if err := l.Snapshot([]byte("x")); err == nil {
		t.Fatal("Snapshot on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}
