package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/wal"
)

// runWALBench measures a durable journal append — wal.Log.Write then Commit
// under SyncAlways — with 1, 2 and 8 concurrent writers: wall time per record
// across all writers, and fsyncs per record, which is what group commit
// saves once writers overlap. It then measures compaction: Log.Snapshot's
// latency at the journal's cadence while two writers commit, and the
// slowest commit meanwhile, which waits out any snapshot. Wall clock on a
// real disk, so the CI gate diffs the snapshot with -warn (internal/wal's
// BenchmarkCommit*Writers are the commit measurement under `go test
// -bench`).
func runWALBench(jsonDir string) error {
	snap := metrics.BenchSnapshot{
		Name:        "wal",
		CreatedUnix: time.Now().Unix(),
		Meta: map[string]string{
			"title": "Durable journal append (Write + Commit, fsync always) by concurrent writers, and Log.Snapshot at the journal's cadence (wall clock; diff with -warn)",
		},
	}
	const records = 800
	for _, writers := range []int{1, 2, 8} {
		nsPerOp, fsyncsPerOp, err := commitBench(writers, records)
		if err != nil {
			return err
		}
		prefix := fmt.Sprintf("wal/commit/%dw", writers)
		snap.Values = append(snap.Values,
			metrics.BenchValue{Name: prefix + "/ns_per_op", Value: nsPerOp, Better: "lower"},
			metrics.BenchValue{Name: prefix + "/fsyncs_per_op", Value: fsyncsPerOp, Better: "lower"})
		fmt.Printf("%-24s %8.0f ns/op  %6.3f fsyncs/op (%d writers, 128B records)\n", prefix, nsPerOp, fsyncsPerOp, writers)
	}
	snapUS, commitMaxUS, err := snapshotBench(6)
	if err != nil {
		return err
	}
	sort.Float64s(snapUS)
	snap.Values = append(snap.Values,
		metrics.BenchValue{Name: "wal/snapshot/p50_us", Value: snapUS[len(snapUS)/2], Better: "lower"},
		metrics.BenchValue{Name: "wal/snapshot/max_us", Value: snapUS[len(snapUS)-1], Better: "lower"},
		metrics.BenchValue{Name: "wal/commit/2w/max_us", Value: commitMaxUS, Better: "lower"})
	fmt.Printf("%-24s %8.0f us p50  %8.0f us max (%d snapshots of %d KiB, one per %d records)\n",
		"wal/snapshot", snapUS[len(snapUS)/2], snapUS[len(snapUS)-1], len(snapUS), snapshotStateBytes>>10, snapshotEvery)
	fmt.Printf("%-24s %8.0f us max commit while snapshotting\n", "wal/commit/2w", commitMaxUS)
	if jsonDir != "" {
		path := jsonDir + "/BENCH_wal.json"
		if err := snap.WriteFile(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// snapshotEvery and snapshotStateBytes shape the snapshot measurement like
// the scheduler's journal: its default cadence, and a state of this size.
const (
	snapshotEvery      = 4096
	snapshotStateBytes = 16 << 10
)

// snapshotBench runs two writers doing durable appends of 128-byte records
// into one log the way the scheduler's journal does: each Write under an
// owner lock, and whoever writes every snapshotEvery-th record snapshots
// before releasing it; Commit waits outside. It returns each snapshot's
// latency, and the slowest append from taking the owner lock to Commit
// returning, both in microseconds.
func snapshotBench(snapshots int) (snapUS []float64, commitMaxUS float64, err error) {
	dir, err := os.MkdirTemp("", "idxserve-walbench-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	rec, state := make([]byte, 128), make([]byte, snapshotStateBytes)
	var (
		owner   sync.Mutex // the journal's lock: Write and Snapshot under it
		done    atomic.Bool
		wg      sync.WaitGroup
		errs    [2]error
		slowest [2]float64
	)
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
					snapUS = append(snapUS, float64(time.Since(snapStart).Microseconds()))
					done.Store(len(snapUS) == snapshots)
				}
				owner.Unlock()
				if err == nil {
					err = l.Commit(seq)
				}
				slowest[w] = max(slowest[w], float64(time.Since(start).Microseconds()))
				if err != nil {
					errs[w] = err
					done.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, 0, err
	}
	return snapUS, max(slowest[0], slowest[1]), nil
}

// commitBench splits records durable appends over writers goroutines sharing
// one log in a temporary directory.
func commitBench(writers, records int) (nsPerOp, fsyncsPerOp float64, err error) {
	dir, err := os.MkdirTemp("", "idxserve-walbench-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	rec := make([]byte, 128)
	errs := make(chan error, writers) // one slot per writer: none blocks on exit
	before := l.Stats().Fsyncs
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < records/writers; i++ {
				seq, err := l.Write(rec)
				if err == nil {
					err = l.Commit(seq)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return 0, 0, err
	default:
	}
	n := float64(records / writers * writers)
	return float64(elapsed.Nanoseconds()) / n, float64(l.Stats().Fsyncs-before) / n, nil
}
