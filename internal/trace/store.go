package trace

import (
	"encoding/json"
	"fmt"

	"indexlaunch/internal/wal"
)

// Durable trace store, layered on internal/wal exactly like the
// scheduler's job journal:
//
//   - every retained trace is one wal record: the JSON form of Trace;
//   - every SnapshotEvery retains, the whole retained ring is written as
//     a wal snapshot (JSON array, oldest first), which lets the wal
//     compact the per-trace records the snapshot covers;
//   - Open-time recovery replays snapshot-then-records, re-applying ring
//     eviction, so the post-restart ring is exactly the pre-crash ring
//     (modulo the wal's declared durability policy).
//
// The wal.Log is not internally synchronized; the tracer's mutex is the
// store's writer lock.

// openStore opens cfg.Dir and rebuilds the retained ring from it.
func (t *Tracer) openStore() error {
	log, rec, err := wal.Open(t.cfg.Dir, wal.Options{Fsync: wal.SyncInterval})
	if err != nil {
		return fmt.Errorf("trace: open store: %w", err)
	}
	if rec.Snapshot != nil {
		var ring []*Trace
		if err := json.Unmarshal(rec.Snapshot, &ring); err != nil {
			log.Close()
			return fmt.Errorf("trace: corrupt store snapshot: %w", err)
		}
		for _, tr := range ring {
			t.retain(tr, false)
		}
	}
	for _, payload := range rec.Records {
		var tr Trace
		if err := json.Unmarshal(payload, &tr); err != nil {
			// A record the wal accepted but we cannot parse is a version
			// skew, not corruption (the wal already CRC-checked it);
			// skip it rather than refuse to start.
			continue
		}
		t.retain(&tr, false)
	}
	t.mu.Lock()
	t.log = log
	t.mu.Unlock()
	return nil
}

// persistLocked appends tr and snapshots the ring on schedule. Called
// with t.mu held. Store errors are swallowed after marking the log
// closed: tracing is an observability surface and must never take the
// scheduler down.
func (t *Tracer) persistLocked(tr *Trace) {
	payload, err := tr.marshal()
	if err != nil {
		return
	}
	if _, err := t.log.Append(payload); err != nil {
		t.log.Close()
		t.log = nil
		return
	}
	t.sinceSnap++
	if t.sinceSnap < t.cfg.SnapshotEvery {
		return
	}
	t.sinceSnap = 0
	state, err := json.Marshal(t.retained)
	if err != nil {
		return
	}
	if err := t.log.Snapshot(state); err != nil {
		t.log.Close()
		t.log = nil
	}
}

// StoreStats exposes the underlying wal stats (zero when memory-only).
func (t *Tracer) StoreStats() wal.Stats {
	if t == nil {
		return wal.Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		return wal.Stats{}
	}
	return t.log.Stats()
}
