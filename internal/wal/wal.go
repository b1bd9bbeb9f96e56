// Package wal is a generic append-only write-ahead log with snapshots: the
// durability substrate under the scheduler's job journal. It follows the
// recoverable-task-state discipline the ROADMAP's middleware references use —
// state that must survive a crash is a sequence of re-playable values, not
// live pointers — and keeps the format deliberately simple:
//
//   - Records are length+CRC framed: a 4-byte little-endian payload length,
//     a 4-byte little-endian CRC32C (Castagnoli) of the payload followed by
//     the record's 8-byte little-endian seq, then the payload. The seq itself
//     is not stored; covering it means a record decodes only at the position
//     it was written for. Framing errors are therefore always detectable, and
//     a torn tail (a crash mid-write) is truncated away on Open, never
//     replayed.
//   - Records live in segment files named seg-<firstseq>.wal, rotated once a
//     segment passes Options.SegmentBytes. Sequence numbers are dense from 1
//     and implicit: a segment's name carries its first record's seq, and
//     records within are consecutive.
//   - A snapshot (snap-<seq>.snap: one record, its CRC covering seq, and any
//     bytes after it ignored) captures the owner's full state as of record
//     seq. Writing one compacts the log without freeing a block: every
//     segment it covers becomes a spare (seg-<firstseq>.spare), the snapshot
//     it supersedes becomes snap.spare, and later rotations and snapshots
//     rename a spare into place and overwrite it from offset 0. Disk usage
//     is bounded by snapshot cadence rather than history length, and the
//     owner never waits on an unlink: on a filesystem that discards freed
//     blocks one costs tens of milliseconds, and fsyncs queue behind it.
//   - A recycled file keeps its previous bytes past what has been written
//     to it. Their CRCs cover other seqs, so they never decode as records.
//     Recovery truncates such a tail off the newest segment; on an older
//     one, followed by a segment that starts at the next seq, it is no
//     corruption and stays. A clean Close trims the active segment to its
//     logical end.
//   - Logs written before the CRC covered the seq (a CRC of the payload
//     alone) are refused: Open returns an error naming the file when the
//     snapshot or the oldest segment starts with such a record, before it
//     touches anything. Such a frame after a current one is a torn tail.
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
// rotation and the whole of Snapshot, but never across a commit fsync, and
// nothing holding it waits for one: a rotation fsyncs the segment it retires
// itself, and a commit fsync in flight on that file closes it once done.
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
	spareExt            = ".spare"
	snapSpareName       = "snap" + spareExt
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

	f         *os.File // active segment
	segBytes  int64    // active segment's logical end: the next record goes here
	segments  []string // live segment paths, oldest first (incl. active)
	spares    []string // covered segment files, renamed aside for rotate to reuse
	snapSpare string   // the superseded snapshot file, for the next Snapshot to reuse ("" = none)

	next     uint64 // seq the next Write assigns
	snapSeq  uint64
	lastSync time.Time

	durable uint64     // every record with seq <= durable has been fsynced; only grows
	syncing *os.File   // the segment a commit fsync is in flight on, outside mu (nil = none)
	synced  *sync.Cond // on mu; broadcast when syncing clears and on Close

	// syncHook, when set, is called after each completed fsync of a segment
	// with the byte offset the fsync covers, before the log counts those
	// bytes durable, and with offset 0 once a segment file is (re)started.
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
// record after it, truncating torn tails and deleting covered segments.
func (l *Log) recover() (*Recovered, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segSeqs, snapSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeq(name, "seg-", ".wal"); ok {
			segSeqs = append(segSeqs, seq)
		} else if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		} else if name == snapSpareName {
			l.snapSpare = filepath.Join(l.dir, name)
		} else if _, ok := parseSeq(name, "seg-", spareExt); ok {
			l.spares = append(l.spares, filepath.Join(l.dir, name))
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	rec := &Recovered{}
	// Newest decodable snapshot wins; corrupt ones (a crash mid-rename
	// cannot produce these, but disk faults can) fall back to older. A
	// directory of the old framing is refused before anything is changed.
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		payload, ok, err := readFirst(l.snapPath(snapSeqs[i]), snapSeqs[i])
		if err != nil {
			return nil, err
		}
		if ok {
			rec.Snapshot, rec.SnapshotSeq = payload, snapSeqs[i]
			break
		}
	}
	if len(segSeqs) > 0 {
		if _, _, err := readFirst(l.segPath(segSeqs[0]), segSeqs[0]); err != nil {
			return nil, err
		}
	}
	l.snapSeq = rec.SnapshotSeq

	// A segment the snapshot covers holds nothing recovery needs: it is
	// covered when the next segment starts at or below SnapshotSeq+1. It is
	// left over from a crash between a snapshot and its compaction, and
	// since nothing is served yet, it is simply deleted.
	for len(segSeqs) > 1 && segSeqs[1] <= rec.SnapshotSeq+1 {
		if err := os.Remove(l.segPath(segSeqs[0])); err != nil {
			return nil, fmt.Errorf("wal: compact covered segment: %w", err)
		}
		segSeqs = segSeqs[1:]
	}

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
	stop, off := false, 0 // off ends as the newest kept segment's logical end
	for i, first := range segSeqs {
		path := l.segPath(first)
		if stop {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: drop segment past corruption: %w", err)
			}
			rec.DroppedSegments++
			continue
		}
		if first != seq+1 {
			return nil, fmt.Errorf("wal: segment gap: have records through %d, next segment starts at %d", seq, first)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		off = 0
		for ; ; seq++ {
			payload, ok, _ := decode(data[off:], seq+1)
			if !ok {
				break
			}
			if seq+1 > rec.SnapshotSeq {
				rec.Records = append(rec.Records, payload)
			}
			off += headerSize + len(payload)
		}
		l.segments = append(l.segments, path)
		// An undecodable tail followed by a segment that starts at the next
		// seq is what a recycled file kept of its previous life, past where
		// the rotation left it: nothing is lost, so nothing is repaired.
		if off == len(data) || (i+1 < len(segSeqs) && segSeqs[i+1] == seq+1) {
			continue
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		rec.TruncatedBytes += int64(len(data) - off)
		stop = true // everything after a torn record is unusable
	}
	l.next = max(seq, rec.SnapshotSeq) + 1

	// Ready the active segment: reuse the newest, or start fresh — also when
	// the newest ends short of the snapshot (a crash between a snapshot and
	// its rotation, then damage to records the snapshot covers), since a
	// record appended there would sit at the wrong seq.
	if len(l.segments) == 0 || seq < rec.SnapshotSeq {
		if err := l.rotate(); err != nil {
			return nil, err
		}
	} else {
		active := l.segments[len(l.segments)-1]
		f, err := os.OpenFile(active, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.segBytes = f, int64(off)
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

// decode reads the frame at the start of b as record seq: ok when the frame
// is whole and its CRC covers the payload and then seq. old reports a whole
// frame whose CRC covers the payload alone: the framing written before the
// seq was covered, which Open refuses at the start of a file.
func decode(b []byte, seq uint64) (payload []byte, ok, old bool) {
	if len(b) < headerSize {
		return nil, false, false // torn header
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxRecordBytes || int(n) > len(b)-headerSize {
		return nil, false, false // absurd length or torn payload
	}
	payload = b[headerSize : headerSize+int(n)]
	crc, stored := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:8])
	if foldSeq(crc, seq) == stored {
		return payload, true, false
	}
	return nil, false, crc == stored // corrupt, a recycled file's stale bytes, or the old framing
}

// readFirst decodes the first frame of the file at path as record seq — a
// snapshot's payload, whatever follows it (a recycled file's stale bytes) —
// with ok=false on any read, framing or checksum error. A first frame of the
// old framing is an error: Open refuses the directory.
func readFirst(path string, seq uint64) (payload []byte, ok bool, err error) {
	data, _ := os.ReadFile(path) // an unreadable file decodes as nothing
	payload, ok, old := decode(data, seq)
	if old {
		err = fmt.Errorf("wal: %s starts with a record whose CRC does not cover its seq, a framing this version does not read", path)
	}
	return payload, ok, err
}

// foldSeq folds a record's seq into its payload's CRC32C.
func foldSeq(payloadCRC uint32, seq uint64) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return crc32.Update(payloadCRC, castagnoli, b[:])
}

// frame encodes one record, header then payload, with the payload's CRC in
// the header: seal completes it once the record's seq is known.
func frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf
}

// seal folds seq into a framed record's CRC.
func seal(buf []byte, seq uint64) []byte {
	binary.LittleEndian.PutUint32(buf[4:8], foldSeq(binary.LittleEndian.Uint32(buf[4:8]), seq))
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
	seq := l.next
	if _, err := l.f.WriteAt(seal(buf, seq), l.segBytes); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segBytes += int64(len(buf))
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
		if l.opt.Fsync == SyncInterval && (l.syncing != nil || time.Since(l.lastSync) < l.opt.Interval) {
			return nil
		}
		if l.syncing != nil {
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
// record written before the fsync began as durable. A rotation or Close that
// retires the segment meanwhile leaves the file for leadSync to close.
func (l *Log) leadSync() error {
	f, seg, off, covers, hook := l.f, l.segments[len(l.segments)-1], l.segBytes, l.next-1, l.syncHook
	l.syncing = f
	l.mu.Unlock()
	err := f.Sync()
	if err == nil && hook != nil {
		hook(seg, off)
	}
	l.mu.Lock()
	l.syncing = nil
	l.synced.Broadcast()
	if f != l.f {
		_ = f.Close() // retired: the rotation or Close fsynced it and reports its own errors
	}
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.stats.Fsyncs++
	l.stats.CommitFsyncs++
	l.stats.CommitRecords += int64(max(covers, l.durable) - l.durable) // a rotation may have synced them
	l.durable = max(l.durable, covers)
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
// rare paths). It does not wait for a commit fsync in flight on the same
// file: its own covers every record written so far.
func (l *Log) sync() error {
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
// segment file, with the segment's path and the byte offset the fsync covers,
// and with offset 0 when a segment file is started — created, or a spare
// renamed into place — before anything is written to it. It is a seam for
// tests: cutting each segment back to its last reported offset is what a
// power cut leaves behind, and a hook that blocks holds an fsync in flight.
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
// a new one whose first record will be l.next: a spare renamed into place
// when there is one, written from offset 0, else a fresh file. Caller holds
// mu.
func (l *Log) rotate() error {
	if l.f != nil {
		if l.opt.Fsync != SyncNever {
			if err := l.sync(); err != nil {
				return err
			}
		}
		if err := l.retire(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.stats.Rotations++
	}
	path := l.segPath(l.next)
	flag := os.O_CREATE | os.O_WRONLY | os.O_EXCL
	if n := len(l.spares); n > 0 {
		if err := os.Rename(l.spares[n-1], path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.spares, flag = l.spares[:n-1], os.O_WRONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.segBytes = f, 0
	l.segments = append(l.segments, path)
	l.stats.Segments = len(l.segments)
	if err := l.syncDir(); err != nil {
		return err
	}
	if l.syncHook != nil {
		l.syncHook(path, 0)
	}
	return nil
}

// retire drops the active segment's file: it is closed now, or, when a
// commit fsync is in flight on it, by that commit's leader once it returns.
func (l *Log) retire() (err error) {
	if l.f != l.syncing {
		err = l.f.Close()
	}
	l.f = nil
	return err
}

// Snapshot atomically writes state as a snapshot covering every record
// written so far, then compacts: a fresh segment is started (unless the
// active one is still empty) and the covered segments and the superseded
// snapshot are renamed aside as spares. It holds the log's mutex throughout
// and waits on no commit fsync, so no write or commit interleaves and every
// segment before the active one is covered.
func (l *Log) Snapshot(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errClosed
	}
	seq := l.next - 1
	path := l.snapPath(seq)
	tmp := path + ".tmp"
	if l.snapSpare != "" {
		if err := os.Rename(l.snapSpare, tmp); err != nil {
			return fmt.Errorf("wal: snapshot: %w", err)
		}
		l.snapSpare = ""
	}
	if err := l.writeSnapshotFile(tmp, seal(frame(state), seq)); err != nil {
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
	// disposable. Rotate to a new segment first (so the directory always
	// has an active segment), then set covered ones and the stale snapshot
	// aside. An empty active segment already starts at the next seq, the
	// name a new one would need, so it stays. A rename that fails leaves a
	// file recovery ignores or deletes.
	if l.segBytes > 0 {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.compactCovered()
	if oldSnap > 0 && oldSnap != seq {
		spare := filepath.Join(l.dir, snapSpareName)
		if os.Rename(l.snapPath(oldSnap), spare) == nil {
			l.snapSpare = spare
		}
	}
	return nil
}

// writeSnapshotFile writes buf at the start of path, over whatever a
// recycled file holds, and, unless SyncNever, fsyncs it before closing: the
// rename that follows must never publish unsynced bytes.
func (l *Log) writeSnapshotFile(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(buf, 0)
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

// compactCovered sets aside segments every record of which is covered by
// the current snapshot, as spares for rotate: segment i is covered when
// segment i+1 starts at or below snapSeq+1. The active (last) segment is
// never covered.
func (l *Log) compactCovered() {
	kept := l.segments[:0]
	for i, path := range l.segments {
		if i+1 < len(l.segments) {
			nextFirst, ok := parseSeq(filepath.Base(l.segments[i+1]), "seg-", ".wal")
			if ok && nextFirst <= l.snapSeq+1 {
				if spare := strings.TrimSuffix(path, ".wal") + spareExt; os.Rename(path, spare) == nil {
					l.spares = append(l.spares, spare)
				}
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

// Close trims the active segment to its logical end (freeing what a
// recycled file held past it), syncs (unless SyncNever) and closes it. The
// log is unusable afterwards; a Commit still waiting returns an error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Truncate(l.segBytes)
	if err == nil && l.opt.Fsync != SyncNever {
		err = l.sync()
	}
	if cerr := l.retire(); err == nil {
		err = cerr
	}
	l.synced.Broadcast()
	return err
}
