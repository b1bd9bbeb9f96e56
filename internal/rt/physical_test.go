package rt

import "testing"

// Once more than profIDCap events are live, profNote must not rescan the
// whole map on every note: it prunes again only after the map has doubled
// past what survived the previous scan, so 4 × profIDCap notes of events
// that never fire cost two scans, not one per note.
func TestProfNotePruneIsAmortized(t *testing.T) {
	r := &Runtime{profIDs: map[*Event]int64{}}
	scans, last := 0, r.profPruneAt
	for i := range int64(4 * profIDCap) {
		r.profNote(NewEvent(), i)
		if r.profPruneAt != last {
			scans, last = scans+1, r.profPruneAt
		}
	}
	if scans != 2 || len(r.profIDs) != 4*profIDCap {
		t.Fatalf("%d scans, %d entries kept; want 2 scans keeping all %d live events", scans, len(r.profIDs), 4*profIDCap)
	}

	// Fired events still go at the next scan; the note that triggers it is
	// the one entry left.
	for e := range r.profIDs {
		e.Trigger()
	}
	for last := r.profPruneAt; r.profPruneAt == last; {
		r.profNote(Completed(), 0)
	}
	if len(r.profIDs) != 1 {
		t.Fatalf("%d entries after pruning fired events, want 1", len(r.profIDs))
	}
}
