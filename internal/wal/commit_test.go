package wal

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/wal/waltest"
)

// TestPowerCutKeepsCommitted is the group-commit invariant at the wal's own
// level: with concurrent writers each doing Write then Commit (and segments
// small enough to rotate under them), cutting every segment back to its last
// fsynced offset loses no record whose Commit had returned.
func TestPowerCutKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: SyncAlways, SegmentBytes: 512})
	defer l.Close()
	var cut waltest.Offsets
	l.SetSyncHook(cut.Hook)

	const writers, each = 8, 60
	var mu sync.Mutex
	committed := map[uint64]string{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				payload := fmt.Sprintf("writer-%d-record-%d", w, i)
				seq, err := l.Write([]byte(payload))
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mu.Lock()
				committed[seq] = payload
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// A record written but never committed may vanish; nothing waited on it.
	if _, err := l.Write([]byte("uncommitted")); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, cut.Cut(t, dir), Options{})
	defer l2.Close()
	if len(committed) != writers*each {
		t.Fatalf("%d commits returned, want %d", len(committed), writers*each)
	}
	for seq, want := range committed {
		if seq > uint64(len(rec.Records)) {
			t.Fatalf("committed seq %d lost: only %d records survive the cut", seq, len(rec.Records))
		}
		if got := string(rec.Records[seq-1]); got != want {
			t.Fatalf("seq %d = %q after the cut, want %q", seq, got, want)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("test never rotated a segment under the committers: %+v", st)
	}
}

// TestSnapshotOneCriticalSection: two writers Write and Commit with no lock
// of their own, a third goroutine snapshots, and the sync hook holds every
// fsync in flight a while. Neither a Snapshot nor a rotation Write starts
// waits on a commit fsync, so none lets a record in half-way: after each
// Snapshot only the fresh segment and those its later records filled are
// live, and segments rotate exactly when full, each once.
func TestSnapshotOneCriticalSection(t *testing.T) {
	const writers, each, perSeg = 2, 150, 8
	frameLen := headerSize + len("w0-000000")
	l, _ := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways, SegmentBytes: int64(perSeg * frameLen)})
	defer l.Close()
	l.SetSyncHook(func(string, int64) { time.Sleep(100 * time.Microsecond) })
	// segments is how many a chain of n records from a fresh segment spans.
	segments := func(n uint64) int { return max(1, int(n+perSeg-1)/perSeg) }

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := l.Write([]byte(fmt.Sprintf("w%d-%06d", w, i)))
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	var snaps []uint64
	for running := true; running && !t.Failed(); {
		select {
		case <-done:
			running = false
		default:
		}
		if l.LastSeq() == l.SnapshotSeq() { // as the journal does: only past new records
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err := l.Snapshot([]byte("state")); err != nil {
			t.Error(err)
		}
		seq := l.SnapshotSeq()
		if st := l.Stats(); st.Segments != segments(st.LastSeq-seq) {
			t.Errorf("snapshot at seq %d left %d segments with %d records after it, want %d",
				seq, st.Segments, st.LastSeq-seq, segments(st.LastSeq-seq))
		}
		snaps = append(snaps, seq)
	}
	<-done
	if t.Failed() {
		return
	}
	st := l.Stats()
	want, prev := int64(len(snaps)), uint64(0)
	for _, seq := range append(snaps, st.LastSeq) {
		want += int64(segments(seq-prev) - 1)
		prev = seq
	}
	if st.Rotations != want || st.LastSeq != writers*each {
		t.Fatalf("%d rotations over %d records and %d snapshots, want %d", st.Rotations, st.LastSeq, len(snaps), want)
	}
}

// TestCommitSharesFsyncs: committers that arrive while an fsync is in flight
// share the next one; a lone committer pays exactly one fsync per commit.
func TestCommitSharesFsyncs(t *testing.T) {
	t.Run("8-committers", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways})
		defer l.Close()
		const committers = 8
		// Hold the first fsync in flight until every record is written, so
		// whoever did not lead it must share the second.
		var written sync.WaitGroup
		written.Add(committers)
		var first sync.Once
		l.SetSyncHook(func(string, int64) { first.Do(written.Wait) })
		before := l.Stats()
		var wg sync.WaitGroup
		for i := 0; i < committers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				seq, err := l.Write([]byte("record"))
				written.Done()
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		st := l.Stats()
		if got := st.Fsyncs - before.Fsyncs; got >= committers || got != st.CommitFsyncs {
			t.Fatalf("%d commits took %d fsyncs (%d led by Commit), want fewer than one each", committers, got, st.CommitFsyncs)
		}
		if st.CommitFsyncs > 2 || st.CommitRecords != committers {
			t.Fatalf("commit fsyncs = %d covering %d records, want at most 2 covering %d", st.CommitFsyncs, st.CommitRecords, committers)
		}
	})
	t.Run("1-committer", func(t *testing.T) {
		l, _ := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways})
		defer l.Close()
		before := l.Stats()
		const commits = 20
		for i := 0; i < commits; i++ {
			seq, err := l.Write([]byte("record"))
			if err == nil {
				err = l.Commit(seq)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Already durable: a second Commit must not sync again.
			if err := l.Commit(seq); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Stats().Fsyncs - before.Fsyncs; got != commits {
			t.Fatalf("%d sequential commits took %d fsyncs, want exactly one each", commits, got)
		}
	})
}

// TestCommitFollowsPolicy: Commit is where the policy acts. Under
// SyncInterval it syncs a tail only once the last sync is Interval old — the
// call an idle owner's tick makes — and under SyncNever it never syncs.
func TestCommitFollowsPolicy(t *testing.T) {
	commitTail := func(t *testing.T, opt Options) int64 {
		l, _ := mustOpen(t, t.TempDir(), opt)
		defer l.Close()
		before := l.Stats().Fsyncs
		seq, err := l.Write([]byte("tail"))
		if err == nil {
			err = l.Commit(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
		return l.Stats().Fsyncs - before
	}
	if got := commitTail(t, Options{Fsync: SyncInterval, Interval: time.Hour}); got != 0 {
		t.Errorf("interval(1h): commit right after open made %d fsyncs, want 0", got)
	}
	if got := commitTail(t, Options{Fsync: SyncInterval, Interval: time.Nanosecond}); got != 1 {
		t.Errorf("interval(1ns): commit of a stale tail made %d fsyncs, want 1", got)
	}
	if got := commitTail(t, Options{Fsync: SyncNever}); got != 0 {
		t.Errorf("never: commit made %d fsyncs, want 0", got)
	}

	l, _ := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways})
	defer l.Close()
	if err := l.Commit(1); err == nil {
		t.Error("Commit of a seq never written succeeded")
	}
}

// TestSnapshotFailureKeepsSegments: a snapshot that cannot be written and
// synced returns the error and compacts nothing.
func TestSnapshotFailureKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendN(t, l, 0, 10)
	// Occupy the snapshot's temporary name with a directory: the open fails.
	if err := os.Mkdir(l.snapPath(10)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state@10")); err == nil {
		t.Fatal("Snapshot over an unwritable temporary file succeeded")
	}
	if st := l.Stats(); st.Snapshots != 0 || st.SnapshotSeq != 0 {
		t.Fatalf("failed snapshot was counted: %+v", st)
	}
	appendN(t, l, 10, 5)
	l.Close()
	if err := os.Remove(l.snapPath(10) + ".tmp"); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Snapshot != nil {
		t.Fatalf("recovered a snapshot that was never written: %q", rec.Snapshot)
	}
	wantRecords(t, rec, 0, 15)
}

// BenchmarkWal measures the durable journal under SyncAlways, as
// BENCH_wal.json records it. commit/{1w,2w,8w} is a Write + Commit of a
// 128-byte record by that many concurrent writers: ns/op is wall time per
// record across all writers, and fsyncs/op is what group commit saves.
// snapshot is Log.Snapshot at the scheduler journal's cadence while two
// writers commit.
func BenchmarkWal(b *testing.B) {
	b.Run("commit", func(b *testing.B) {
		for _, writers := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%dw", writers), func(b *testing.B) { benchmarkCommit(b, writers) })
		}
	})
	b.Run("snapshot", benchmarkSnapshot)
}

func benchmarkCommit(b *testing.B, writers int) {
	l, _, err := Open(b.TempDir(), Options{Fsync: SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec := make([]byte, 128)
	before := l.Stats().Fsyncs
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		n := b.N / writers
		if w < b.N%writers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				seq, err := l.Write(rec)
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(l.Stats().Fsyncs-before)/float64(b.N), "fsyncs/op")
}

// snapshotEvery and snapshotStateBytes shape benchmarkSnapshot like the
// scheduler's journal: its default cadence, and a state of this size.
const (
	snapshotEvery      = 4096
	snapshotStateBytes = 16 << 10
)

// benchmarkSnapshot runs two writers appending 128-byte records the way the
// scheduler's journal does: each Write under an owner lock, and whoever
// writes every snapshotEvery-th record snapshots before releasing it;
// Commit waits outside. One op is one snapshot. It reports the snapshots'
// median and slowest latency, and the slowest append from taking the owner
// lock to Commit returning, which waits out any snapshot, all in
// microseconds.
func benchmarkSnapshot(b *testing.B) {
	l, _, err := Open(b.TempDir(), Options{Fsync: SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rec, state := make([]byte, 128), make([]byte, snapshotStateBytes)
	var (
		owner   sync.Mutex // the journal's lock: Write and Snapshot under it
		snapUS  []float64
		done    atomic.Bool
		wg      sync.WaitGroup
		slowest [2]float64
	)
	b.ResetTimer()
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				start := time.Now()
				owner.Lock()
				seq, err := l.Write(rec)
				if err == nil && seq%snapshotEvery == 0 {
					snapStart := time.Now()
					err = l.Snapshot(state)
					snapUS = append(snapUS, float64(time.Since(snapStart).Nanoseconds())/1e3)
					done.Store(len(snapUS) == b.N)
				}
				owner.Unlock()
				if err == nil {
					err = l.Commit(seq)
				}
				slowest[w] = max(slowest[w], float64(time.Since(start).Nanoseconds())/1e3)
				if err != nil {
					b.Error(err)
					done.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if b.Failed() {
		return
	}
	sort.Float64s(snapUS)
	b.ReportMetric(snapUS[len(snapUS)/2], "p50_us")
	b.ReportMetric(snapUS[len(snapUS)-1], "max_us")
	b.ReportMetric(max(slowest[0], slowest[1]), "commit_max_us")
}
