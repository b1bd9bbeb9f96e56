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

// Offsets tracks the last fsynced byte offset of each segment file, and what
// a recycled segment held when it was started. The zero value is ready; Hook
// is safe for concurrent use.
type Offsets struct {
	mu   sync.Mutex
	off  map[string]int64
	prev map[string][]byte
}

// Hook is the wal.Log sync hook: segment has been fsynced through offset.
// The call with offset 0 that starts a segment comes before anything is
// written to it, so the file then holds its previous life — empty for a
// fresh file, a spare's old records for a recycled one.
func (o *Offsets) Hook(segment string, offset int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.off == nil {
		o.off, o.prev = map[string]int64{}, map[string][]byte{}
	}
	name := filepath.Base(segment)
	if _, seen := o.off[name]; !seen && offset == 0 {
		o.prev[name], _ = os.ReadFile(segment)
	}
	if offset >= o.off[name] {
		o.off[name] = offset
	}
}

// Cut copies the log directory dir into a fresh temporary directory as a
// power cut at this instant would leave it: each segment keeps only the bytes
// an fsync covered (a segment never synced keeps none), followed, where the
// segment is a recycled file, by the bytes it held before past that offset;
// snapshots — fsynced before the rename that makes them visible — and spares
// are kept whole, and a snapshot still being written (.tmp) is dropped. The
// caller must keep dir's owner from rotating or snapshotting during the copy;
// commits may go on.
func (o *Offsets) Cut(t testing.TB, dir string) string {
	t.Helper()
	o.mu.Lock()
	offsets := make(map[string]int64, len(o.off))
	for name, off := range o.off {
		offsets[name] = off
	}
	prev := make(map[string][]byte, len(o.prev))
	for name, data := range o.prev {
		prev[name] = data
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
			off := offsets[name]
			data = data[:off]
			if old := prev[name]; int64(len(old)) > off {
				data = append(data, old[off:]...)
			}
		}
		if err := os.WriteFile(filepath.Join(out, name), data, 0o644); err != nil {
			t.Fatalf("waltest: %v", err)
		}
	}
	return out
}
