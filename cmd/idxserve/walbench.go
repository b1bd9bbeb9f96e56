package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/wal"
)

// runWALBench measures a durable journal append — wal.Log.Write then Commit
// under SyncAlways — with 1, 2 and 8 concurrent writers: wall time per record
// across all writers, and fsyncs per record, which is what group commit
// saves once writers overlap. Wall clock on a real disk, so the CI gate diffs
// the snapshot with -warn (internal/wal's BenchmarkCommit*Writers are the
// same measurement under `go test -bench`).
func runWALBench(jsonDir string) error {
	snap := metrics.BenchSnapshot{
		Name:        "wal",
		CreatedUnix: time.Now().Unix(),
		Meta: map[string]string{
			"title": "Durable journal append (Write + Commit, fsync always) by concurrent writers (wall clock; diff with -warn)",
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
	if jsonDir != "" {
		path := jsonDir + "/BENCH_wal.json"
		if err := snap.WriteFile(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
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
