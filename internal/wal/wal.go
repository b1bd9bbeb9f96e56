// Package wal is a generic append-only write-ahead log with snapshots: the
// durability substrate under the scheduler's job journal. It follows the
// recoverable-task-state discipline the ROADMAP's middleware references use —
// state that must survive a crash is a sequence of re-playable values, not
// live pointers — and keeps the format deliberately simple:
//
//   - Records are length+CRC framed: a 4-byte little-endian payload length,
//     a 4-byte little-endian CRC32C (Castagnoli) of the payload, then the
//     payload. Framing errors are therefore always detectable, and a torn
//     tail (a crash mid-write) is truncated away on Open, never replayed.
//   - Records live in segment files named seg-<firstseq>.wal, rotated once a
//     segment passes Options.SegmentBytes. Sequence numbers are dense from 1
//     and implicit: a segment's name carries its first record's seq, and
//     records within are consecutive.
//   - A snapshot (snap-<seq>.snap, same framing, single record) captures the
//     owner's full state as of record seq. Writing one compacts the log:
//     every segment it covers is deleted and a fresh segment starts, so disk
//     usage is bounded by snapshot cadence rather than history length.
//   - Fsync policy is configurable: under SyncAlways a record is durable
//     once Commit (or Append) returns, so acknowledged writes survive power
//     loss; SyncInterval syncs at most once per Interval, when a Commit or
//     Append finds the last sync that old (acknowledged writes survive
//     SIGKILL; a power cut loses up to Interval provided the owner calls
//     Commit at least that often — the scheduler does so from its tick);
//     SyncNever leaves flushing to the kernel entirely.
//   - Appending is two steps, so an owner can order records under its own
//     lock and wait for durability outside it: Write frames a record and
//     write(2)s it, Commit(seq) returns once an fsync that began after seq
//     was written has finished. At most one commit fsync is in flight; it
//     covers every record written before it began, and callers that arrive
//     meanwhile share the next one (group commit: the batch is whatever
//     accumulated during the previous fsync — no timer, no threshold).
//     Append is Write followed by Commit.
//
// Open returns both the writable log and a Recovered view of everything
// durable: the newest valid snapshot (corrupt snapshots fall back to older
// ones) plus every decodable record after it, with torn or corrupt tails
// truncated and counted. Recovery is deterministic: two Opens of the same
// directory yield byte-identical state.
//
// The log is safe for concurrent use. Its mutex is held across write(2),
// rotation and Snapshot, but never across a commit fsync: writers and readers
// of Stats proceed while one is in flight.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval batches fsyncs: a commit syncs only when Interval has
	// passed since the last sync. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes every record durable before its Commit returns.
	SyncAlways
	// SyncNever never fsyncs; the kernel flushes on its own schedule.
	SyncNever
)

var syncNames = map[SyncPolicy]string{SyncInterval: "interval", SyncAlways: "always", SyncNever: "never"}

// String renders the policy's flag form (always | interval | never).
func (p SyncPolicy) String() string {
	if n, ok := syncNames[p]; ok {
		return n
	}
	return "unknown"
}

// ParseSyncPolicy inverts String, for flag parsing.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, n := range syncNames {
		if n == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a log. The zero value is usable: interval fsync every
// 100ms, 4 MiB segments.
type Options struct {
	// Fsync is the sync policy for appends and snapshots.
	Fsync SyncPolicy
	// Interval is the SyncInterval batching period; 0 defaults to 100ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment once it passes this size;
	// 0 defaults to 4 MiB.
	SegmentBytes int64
}

const (
	defaultInterval     = 100 * time.Millisecond
	defaultSegmentBytes = 4 << 20
	headerSize          = 8       // 4B length + 4B CRC32C
	maxRecordBytes      = 1 << 28 // framing sanity bound: larger lengths are corruption
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Recovered is everything durable found in the directory at Open.
type Recovered struct {
	// Snapshot is the newest valid snapshot's payload, nil when none.
	Snapshot []byte
	// SnapshotSeq is the record seq the snapshot covers (records 1..SnapshotSeq).
	SnapshotSeq uint64
	// Records are the decodable records after the snapshot, in order; the
	// first has seq SnapshotSeq+1.
	Records [][]byte
	// TruncatedBytes counts bytes dropped from a torn or corrupt tail.
	TruncatedBytes int64
	// DroppedSegments counts whole segments abandoned past a corrupt record.
	DroppedSegments int
}

// Empty reports a fresh directory: no snapshot and no records.
func (r *Recovered) Empty() bool { return r.Snapshot == nil && len(r.Records) == 0 }

// Stats is a point-in-time counter snapshot for metrics and /statusz.
type Stats struct {
	Appends       int64  // records appended this process
	AppendedBytes int64  // payload bytes appended this process
	Fsyncs        int64  // fsync calls this process (commits, rotations, snapshots, directory)
	CommitFsyncs  int64  // of those, group-commit fsyncs led by Commit
	CommitRecords int64  // records those commit fsyncs made durable
	Rotations     int64  // segment rotations this process
	Snapshots     int64  // snapshots written this process
	Segments      int    // live segment files
	LastSeq       uint64 // seq of the newest record (0 = none)
	SnapshotSeq   uint64 // seq covered by the newest snapshot (0 = none)
}

// Log is an open write-ahead log directory.
type Log struct {
	dir string
	opt Options

	// mu guards every field below. A commit leader drops it for the
	// duration of its fsync, leaving syncing set.
	mu sync.Mutex

	f        *os.File // active segment
	segBytes int64    // active segment size
	segments []string // live segment paths, oldest first (incl. active)

	next     uint64 // seq the next Write assigns
	snapSeq  uint64
	lastSync time.Time

	durable uint64     // every record with seq <= durable has been fsynced
	syncing bool       // a commit fsync is in flight outside mu
	synced  *sync.Cond // on mu; broadcast when syncing clears and on Close

	// syncHook, when set, is called after each completed fsync of a segment
	// with the byte offset the fsync covers, before the log counts those
	// bytes durable.
	syncHook func(segment string, offset int64)

	stats Stats
}

// Open opens (creating if needed) the log directory, recovers its durable
// state, truncates any torn tail, compacts segments fully covered by the
// newest valid snapshot, and readies the newest segment for appending.
func Open(dir string, opt Options) (*Log, *Recovered, error) {
	if opt.Interval <= 0 {
		opt.Interval = defaultInterval
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opt: opt, lastSync: time.Now()}
	l.synced = sync.NewCond(&l.mu)
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// segPath / snapPath name files by the 16-hex-digit seq in their stem.
func (l *Log) segPath(firstSeq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%016x.wal", firstSeq))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%016x.snap", seq))
}

// parseSeq extracts the seq from a "prefix-<16 hex>.<ext>" name.
func parseSeq(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ext)
	n, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover scans the directory: newest valid snapshot, then every decodable
// record after it, truncating torn tails and compacting covered segments.
func (l *Log) recover() (*Recovered, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segSeqs, snapSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok {
			segSeqs = append(segSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	rec := &Recovered{}
	// Newest decodable snapshot wins; corrupt ones (a crash mid-rename
	// cannot produce these, but disk faults can) fall back to older.
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		payload, ok := readSnapshot(l.snapPath(snapSeqs[i]))
		if ok {
			rec.Snapshot, rec.SnapshotSeq = payload, snapSeqs[i]
			break
		}
	}
	l.snapSeq = rec.SnapshotSeq

	// Scan segments in order, collecting records past the snapshot. A
	// corrupt or torn record truncates its segment there and drops every
	// later segment: recovery is the longest valid durable prefix.
	seq := rec.SnapshotSeq
	if len(segSeqs) > 0 {
		if segSeqs[0] > rec.SnapshotSeq+1 {
			return nil, fmt.Errorf("wal: segment gap: snapshot covers through %d, oldest segment starts at %d",
				rec.SnapshotSeq, segSeqs[0])
		}
		seq = segSeqs[0] - 1
	}
	stop := false
	for _, first := range segSeqs {
		if stop {
			if err := os.Remove(l.segPath(first)); err != nil {
				return nil, fmt.Errorf("wal: drop segment past corruption: %w", err)
			}
			rec.DroppedSegments++
			continue
		}
		if first != seq+1 {
			return nil, fmt.Errorf("wal: segment gap: have records through %d, next segment starts at %d", seq, first)
		}
		path := l.segPath(first)
		_, truncated, err := scanSegment(path, func(payload []byte) {
			seq++
			if seq > rec.SnapshotSeq {
				rec.Records = append(rec.Records, payload)
			}
		})
		if err != nil {
			return nil, err
		}
		if truncated > 0 {
			rec.TruncatedBytes += truncated
			stop = true // everything after a torn record is unusable
		}
		l.segments = append(l.segments, path)
	}
	l.next = seq + 1

	// Compact segments fully covered by the snapshot: a segment is covered
	// when the next segment starts at or below snapSeq+1.
	l.compactCovered()

	// Ready the active segment: reuse the newest, or start fresh.
	if len(l.segments) == 0 {
		if err := l.rotate(); err != nil {
			return nil, err
		}
	} else {
		active := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.segBytes = f, st.Size()
		// The recovered tail may be bytes a killed process wrote but never
		// synced. The owner is about to act on them (and acknowledge what it
		// derives), so make them durable before counting them so.
		if l.opt.Fsync != SyncNever && l.segBytes > 0 {
			if err := l.sync(); err != nil {
				return nil, err
			}
		}
	}
	l.durable = l.next - 1
	l.stats.Segments = len(l.segments)
	l.stats.LastSeq = l.next - 1
	l.stats.SnapshotSeq = l.snapSeq
	return rec, nil
}

// scanSegment decodes records, calling fn per payload. On a torn or corrupt
// record it truncates the file at the last good offset and reports the
// dropped byte count.
func scanSegment(path string, fn func(payload []byte)) (records int, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, 0, nil
		}
		if len(rest) < headerSize {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecordBytes || int(n) > len(rest)-headerSize {
			break // absurd length or torn payload
		}
		payload := rest[headerSize : headerSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			break // corrupt payload
		}
		fn(payload)
		records++
		off += headerSize + int(n)
	}
	truncated = int64(len(data) - off)
	if terr := os.Truncate(path, int64(off)); terr != nil {
		return records, truncated, fmt.Errorf("wal: truncate torn tail of %s: %w", path, terr)
	}
	return records, truncated, nil
}

// readSnapshot decodes a snapshot file (one framed record); ok=false on any
// framing or checksum error.
func readSnapshot(path string) (payload []byte, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < headerSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n > maxRecordBytes || int(n) != len(data)-headerSize {
		return nil, false
	}
	payload = data[headerSize:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, false
	}
	return payload, true
}

// frame encodes one record: header then payload.
func frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf
}

// errClosed is returned by operations on a closed log.
var errClosed = errors.New("wal: log closed")

// Write frames payload and writes it to the active segment without syncing,
// returning the record's seq. The record survives a process kill at once; it
// survives a power cut once Commit(seq) has returned under SyncAlways.
func (l *Log) Write(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordBytes)
	}
	buf := frame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errClosed
	}
	if l.segBytes >= l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += int64(len(buf))
	seq := l.next
	l.next++
	l.stats.Appends++
	l.stats.AppendedBytes += int64(len(payload))
	l.stats.LastSeq = seq
	return seq, nil
}

// Commit applies the fsync policy to record seq and everything before it.
// Under SyncAlways it returns once an fsync that began after seq was written
// has finished: the caller leads one if none is in flight, otherwise it waits
// and shares the next, so concurrent committers pay one fsync between them.
// Under SyncInterval it syncs only when the last sync is at least Interval
// old, and never waits for another caller's; under SyncNever it does nothing.
func (l *Log) Commit(seq uint64) error {
	if l.opt.Fsync == SyncNever {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.next {
		return fmt.Errorf("wal: commit of seq %d, newest record is %d", seq, l.next-1)
	}
	for l.durable < seq {
		if l.f == nil {
			return errClosed
		}
		if l.opt.Fsync == SyncInterval && (l.syncing || time.Since(l.lastSync) < l.opt.Interval) {
			return nil
		}
		if l.syncing {
			l.synced.Wait()
			continue
		}
		if err := l.leadSync(); err != nil {
			return err
		}
	}
	return nil
}

// leadSync fsyncs the active segment with mu released, then counts every
// record written before the fsync began as durable. Rotation, Snapshot and
// Close wait for syncing to clear before they close the file.
func (l *Log) leadSync() error {
	f, seg, off, covers, hook := l.f, l.segments[len(l.segments)-1], l.segBytes, l.next-1, l.syncHook
	l.syncing = true
	l.mu.Unlock()
	err := f.Sync()
	if err == nil && hook != nil {
		hook(seg, off)
	}
	l.mu.Lock()
	l.syncing = false
	l.synced.Broadcast()
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.Fsyncs++
	l.stats.CommitFsyncs++
	l.stats.CommitRecords += int64(covers - l.durable)
	l.durable = covers
	l.lastSync = time.Now()
	return nil
}

// Append writes one record, honoring the fsync policy, and returns its seq:
// Write followed by Commit.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, err := l.Write(payload)
	if err != nil {
		return 0, err
	}
	if err := l.Commit(seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	return l.sync()
}

// sync fsyncs the active segment with mu held (rotation, Close, Sync: the
// rare paths), after any in-flight commit fsync has finished. Every path that
// closes the segment file comes through here first, except under SyncNever,
// where no commit fsync exists to wait for.
func (l *Log) sync() error {
	for l.syncing {
		l.synced.Wait()
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if l.syncHook != nil {
		l.syncHook(l.segments[len(l.segments)-1], l.segBytes)
	}
	l.stats.Fsyncs++
	l.durable = l.next - 1
	l.lastSync = time.Now()
	return nil
}

// SetSyncHook installs fn to be called after every completed fsync of a
// segment file, with the segment's path and the byte offset the fsync covers.
// It is a seam for tests: cutting each segment back to its last reported
// offset is what a power cut leaves behind, and a hook that blocks holds an
// fsync in flight.
func (l *Log) SetSyncHook(fn func(segment string, offset int64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncHook = fn
}

// syncDir fsyncs the directory so renames and new files are durable.
func (l *Log) syncDir() error {
	if l.opt.Fsync == SyncNever {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	l.stats.Fsyncs++
	return nil
}

// rotate closes the active segment (syncing it unless SyncNever) and starts
// a fresh one whose first record will be l.next. Caller holds mu.
func (l *Log) rotate() error {
	if l.f != nil {
		if l.opt.Fsync != SyncNever {
			if err := l.sync(); err != nil {
				return err
			}
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = nil
		l.stats.Rotations++
	}
	path := l.segPath(l.next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.segBytes = f, 0
	l.segments = append(l.segments, path)
	l.stats.Segments = len(l.segments)
	return l.syncDir()
}

// Snapshot atomically writes state as a snapshot covering every record
// written so far, then compacts: covered segments are deleted, older
// snapshots removed, and a fresh segment started. It holds the log's mutex
// throughout, so no write or commit interleaves.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	seq := l.next - 1
	path := l.snapPath(seq)
	tmp := path + ".tmp"
	if err := l.writeSnapshotFile(tmp, frame(state)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	oldSnap := l.snapSeq
	l.snapSeq = seq
	l.stats.Snapshots++
	l.stats.SnapshotSeq = seq

	// Compact: the snapshot covers everything appended, so every segment is
	// disposable. Rotate to a fresh segment first (so the directory always
	// has an active segment), then drop covered ones and stale snapshots.
	if err := l.rotate(); err != nil {
		return err
	}
	l.compactCovered()
	if oldSnap > 0 && oldSnap != seq {
		_ = os.Remove(l.snapPath(oldSnap)) // a stale snapshot left behind is ignored by recovery
	}
	l.stats.Segments = len(l.segments)
	return nil
}

// writeSnapshotFile writes buf to path and, unless SyncNever, fsyncs it
// before closing: the rename that follows must never publish unsynced bytes.
func (l *Log) writeSnapshotFile(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil && l.opt.Fsync != SyncNever {
		if err = f.Sync(); err == nil {
			l.stats.Fsyncs++
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compactCovered deletes segments every record of which is covered by the
// current snapshot: segment i is covered when segment i+1 starts at or
// below snapSeq+1. The active (last) segment is never deleted.
func (l *Log) compactCovered() {
	if l.snapSeq == 0 {
		return
	}
	kept := l.segments[:0]
	for i, path := range l.segments {
		if i+1 < len(l.segments) {
			nextFirst, ok := parseSeq(filepath.Base(l.segments[i+1]), "seg-", ".wal")
			if ok && nextFirst <= l.snapSeq+1 {
				_ = os.Remove(path)
				continue
			}
		}
		kept = append(kept, path)
	}
	l.segments = append([]string(nil), kept...)
	l.stats.Segments = len(l.segments)
}

// Stats returns the log's counter snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the seq of the newest written record (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// SnapshotSeq returns the seq covered by the newest snapshot (0 when none).
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// Close syncs (unless SyncNever) and closes the active segment. The log is
// unusable afterwards; a Commit still waiting returns an error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.opt.Fsync != SyncNever {
		err = l.sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.synced.Broadcast()
	return err
}
