package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"indexlaunch/internal/wal/waltest"
)

// Snapshots recycle files instead of deleting them: covered segments and the
// superseded snapshot are renamed aside and overwritten later.

// dirFiles stats every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi
	}
	return out
}

// TestSnapshotRecyclesFiles takes five snapshots: from the second on, the
// directory holds the same four files (the active segment, a spare segment,
// the snapshot and a spare snapshot) by inode, whatever their names.
func TestSnapshotRecyclesFiles(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: SyncAlways})
	var stable map[string]os.FileInfo
	for i := 1; i <= 5; i++ {
		appendN(t, l, (i-1)*20, 20)
		if err := l.Snapshot([]byte(fmt.Sprintf("state@%d", i*20))); err != nil {
			t.Fatal(err)
		}
		now := dirFiles(t, dir)
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
		snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*"))
		if len(segs) > 2 || len(snaps) != 1 || len(now) > 4 {
			t.Fatalf("snapshot %d left %v", i, now)
		}
		switch {
		case i == 2:
			stable = now
		case i > 2:
			if len(now) != len(stable) {
				t.Fatalf("snapshot %d: %d files, %d after the second snapshot", i, len(now), len(stable))
			}
			for name, fi := range now {
				same := false
				for _, was := range stable {
					same = same || os.SameFile(fi, was)
				}
				if !same {
					t.Fatalf("snapshot %d: %s is a new file, not a recycled one", i, name)
				}
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if string(rec.Snapshot) != "state@100" || len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("reopen = %q@%d + %d records, %d bytes truncated", rec.Snapshot, rec.SnapshotSeq, len(rec.Records), rec.TruncatedBytes)
	}
}

// copyDir copies dir as a process kill leaves it: every byte written is
// there, synced or not.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for name := range dirFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRecycledTailNeverDecodes fills two small segments with long records,
// snapshots so that they become spares, then writes short records into the
// recycled files: the one rotated past keeps part of an old record past its
// new end, in the middle of the log; the active one ends where an old record
// starts. A process kill, a power cut and a clean Close each recover exactly
// the new records.
func TestRecycledTailNeverDecodes(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Fsync: SyncAlways, SegmentBytes: 512}
	l, _ := mustOpen(t, dir, opt)
	var cut waltest.Offsets
	l.SetSyncHook(cut.Hook)
	long := bytes.Repeat([]byte{'L'}, 30) // 38-byte frames, two short ones each
	for i := 0; i < 28; i++ {             // two segments of 14
		if _, err := l.Append(long); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Snapshot([]byte("state@28")); err != nil {
		t.Fatal(err)
	}
	// 19-byte frames: 27 to a fresh segment, 27 to a 532-byte spare, 6 to
	// the other, then one more.
	appendN(t, l, 28, 60)
	if _, err := l.Write([]byte("record-0088")); err != nil { // written, never committed
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("the short records span %d segments, want at least 3", st.Segments)
	}

	check := func(when, dir string, n int, truncated bool) {
		t.Helper()
		l2, rec := mustOpen(t, dir, opt)
		defer l2.Close()
		if string(rec.Snapshot) != "state@28" || rec.SnapshotSeq != 28 {
			t.Fatalf("%s: snapshot %q@%d, want state@28@28", when, rec.Snapshot, rec.SnapshotSeq)
		}
		wantRecords(t, rec, 28, n)
		if rec.DroppedSegments != 0 || (rec.TruncatedBytes > 0) != truncated {
			t.Fatalf("%s: %d segments dropped, %d bytes truncated", when, rec.DroppedSegments, rec.TruncatedBytes)
		}
	}
	// After a kill or a power cut, the active segment's stale tail is
	// indistinguishable from a torn record and is truncated.
	check("process kill", copyDir(t, dir), 61, true)
	check("power cut", cut.Cut(t, dir), 60, true)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("clean close", dir, 61, false)
}

// TestOpenRefusesOldFraming: a directory written before the CRC covered
// the seq is refused, by an error naming the file, whether the old framing
// starts its snapshot or its oldest segment, and Open leaves every byte as
// it was. An old-framed record after new ones is a torn tail.
func TestOpenRefusesOldFraming(t *testing.T) {
	oldFramed := func(dir, name string, payloads ...string) {
		var buf []byte
		for _, p := range payloads {
			buf = append(buf, frame([]byte(p))...) // unsealed: a CRC of the payload alone
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]string{
		"seg-0000000000000001.wal":   {"record-0000", "record-0001"},
		"snap-0000000000000002.snap": {"state@2"},
		"seg-0000000000000003.wal":   {"record-0002", "record-0003", "record-0004"},
	}
	refuse := func(dir string, names ...string) {
		t.Helper()
		before := dirBytes(t, dir)
		_, _, err := Open(dir, Options{})
		if err == nil {
			t.Fatalf("Open read the old framing in %v", names)
		}
		named := false
		for _, name := range names {
			named = named || strings.Contains(err.Error(), name)
		}
		if !named {
			t.Fatalf("the refusal %q names none of %v", err, names)
		}
		if !reflect.DeepEqual(before, dirBytes(t, dir)) {
			t.Fatalf("Open changed the directory it refused: %v", err)
		}
	}
	all := t.TempDir()
	for name, payloads := range files {
		oldFramed(all, name, payloads...)
		alone := t.TempDir()
		oldFramed(alone, name, payloads...)
		refuse(alone, name)
	}
	refuse(all, "snap-0000000000000002.snap", "seg-0000000000000001.wal")

	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 0, 2)
	seg := l.segments[len(l.segments)-1]
	l.Close()
	appendBytes(t, seg, frame([]byte("record-0002")))
	l, rec := mustOpen(t, dir, Options{})
	defer l.Close()
	if rec.TruncatedBytes != int64(headerSize+len("record-0002")) {
		t.Fatalf("%d bytes truncated, want the old-framed record after new ones", rec.TruncatedBytes)
	}
	wantRecords(t, rec, 0, 2)
}

// TestTornBelowSnapshotKeepsNewRecords: a power cut between a snapshot and
// its rotation can leave the active segment torn below the seq the snapshot
// covers, since under SyncInterval its tail was never fsynced. Records
// appended after recovery must still follow the snapshot, not fill in seqs
// it already covers.
func TestTornBelowSnapshotKeepsNewRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: SyncNever})
	appendN(t, l, 0, 10)
	seg := l.segments[0]
	l.Close()
	if err := os.WriteFile(l.snapPath(10), seal(frame([]byte("state@10")), 10), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, 6*int64(headerSize+len("record-0000"))); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	if string(rec.Snapshot) != "state@10" || len(rec.Records) != 0 {
		t.Fatalf("recovered %q@%d + %d records", rec.Snapshot, rec.SnapshotSeq, len(rec.Records))
	}
	appendN(t, l2, 10, 2)
	l2.Close()
	l3, rec := mustOpen(t, dir, Options{})
	defer l3.Close()
	wantRecords(t, rec, 10, 2)
}
