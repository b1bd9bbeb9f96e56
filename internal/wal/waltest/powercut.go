// Package waltest simulates power cuts on a wal directory, for the tests of
// internal/wal and of the packages that journal through it.
//
// A power cut keeps exactly what fsync made durable. Offsets.Hook, installed
// with wal.Log.SetSyncHook, records how far each segment file has been
// fsynced; Offsets.Cut copies a log directory with every segment cut back to
// that offset. Whatever an owner acknowledged before the Cut must be in what
// wal.Open recovers from the copy.
package waltest

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Offsets tracks the last fsynced byte offset of each segment file. The zero
// value is ready; Hook is safe for concurrent use.
type Offsets struct {
	mu  sync.Mutex
	off map[string]int64
}

// Hook is the wal.Log sync hook: segment has been fsynced through offset.
func (o *Offsets) Hook(segment string, offset int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.off == nil {
		o.off = map[string]int64{}
	}
	if name := filepath.Base(segment); offset > o.off[name] {
		o.off[name] = offset
	}
}

// Cut copies the log directory dir into a fresh temporary directory as a
// power cut at this instant would leave it: each segment keeps only the bytes
// an fsync covered (a segment never synced keeps none), snapshots — fsynced
// before the rename that makes them visible — are kept whole, and a snapshot
// still being written (.tmp) is dropped. The caller must keep dir's owner
// from rotating or snapshotting during the copy; commits may go on.
func (o *Offsets) Cut(t testing.TB, dir string) string {
	t.Helper()
	o.mu.Lock()
	offsets := make(map[string]int64, len(o.off))
	for name, off := range o.off {
		offsets[name] = off
	}
	o.mu.Unlock()

	out := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("waltest: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("waltest: %v", err)
		}
		if strings.HasSuffix(name, ".wal") {
			data = data[:offsets[name]]
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatalf("waltest: %v", err)
		}
	}
	return out
}
