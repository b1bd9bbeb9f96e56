package rt

import (
	"sort"
	"sync"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// versionMap tracks, per (tree, field), the last tasks to have read, written
// or reduced each linearized interval of the root domain, and answers
// dependence queries for new accesses. It is the in-process analog of the
// paper's distributed bounding-volume hierarchy used by physical analysis
// (§5): queries and updates cost O(log E + K) where E is the number of
// tracked segments and K the number overlapped.
type versionMap struct {
	mu     sync.Mutex
	fields map[fieldKey]*fieldState

	// queries counts access calls; deps counts dependence edges returned.
	// The counters are the runtime's registry instruments, so Stats and
	// /metrics read them without taking vm.mu.
	queries *metrics.Counter
	deps    *metrics.Counter
}

type fieldKey struct {
	tree  region.TreeID
	field region.FieldID
}

type fieldState struct {
	segs []segment // sorted by lo, pairwise disjoint
}

// segment is the epoch state of one interval of a field: the last write
// event, readers since that write, and pending reducers with their operator.
type segment struct {
	lo, hi   int64
	writer   *Event
	readers  []*Event
	redOp    privilege.OpID
	reducers []*Event
}

func newVersionMap(queries, deps *metrics.Counter) *versionMap {
	return &versionMap{fields: map[fieldKey]*fieldState{}, queries: queries, deps: deps}
}

// access registers one access to the given intervals with privilege priv
// and completion event ev, returning the precondition events the access
// must wait for. Intervals must be sorted and disjoint (as produced by
// region.IntervalsOf or region.Union). Points go through accessPoint; this
// single-query form enters a trace replay, per field of its template, by
// the replay's terminal event.
func (vm *versionMap) access(tree region.TreeID, field region.FieldID,
	ivs []region.Interval, priv privilege.Privilege, redOp privilege.OpID, ev *Event) []*Event {

	var s depScratch
	vm.mu.Lock()
	vm.query(fieldKey{tree: tree, field: field}, ivs, priv, redOp, ev, &s)
	vm.mu.Unlock()
	return s.point.list
}

// accessPoint registers every (requirement, field) access of one point task
// — requirement i on regions[i] — with completion event ev under a single
// acquisition of vm.mu, and returns the point's distinct preconditions: a
// view of the caller's scratch s, valid until s is next used. Each pair
// counts as one query with its own distinct edges, exactly as if issued
// alone.
func (vm *versionMap) accessPoint(reqs []PhysicalRegion, regions []*region.Region, ev *Event, s *depScratch) []*Event {
	s.point.reset()
	if len(reqs) == 0 {
		return nil
	}
	vm.mu.Lock()
	for i, req := range reqs {
		reg := regions[i]
		ivs := reg.Intervals()
		for _, f := range req.Fields {
			vm.query(fieldKey{tree: reg.Tree.ID, field: f}, ivs, req.Priv, req.RedOp, ev, s)
		}
	}
	vm.mu.Unlock()
	return s.point.list
}

// query applies one access to one field and merges its distinct
// preconditions, other than ev itself, into s.point. Caller holds vm.mu.
//
// Already-done events stay in the dependence set: waiting on a fired event
// is free, and filtering them would make the edge set depend on execution
// timing — dropping launch-ordering edges from trace capture and hiding
// upstream poison from dependents issued after the failure.
func (vm *versionMap) query(key fieldKey, ivs []region.Interval, priv privilege.Privilege,
	redOp privilege.OpID, ev *Event, s *depScratch) {

	if priv == privilege.None || len(ivs) == 0 {
		return
	}
	vm.queries.Inc()
	fs := vm.fields[key]
	if fs == nil {
		fs = &fieldState{}
		vm.fields[key] = fs
	}
	s.query.self = ev
	for _, iv := range ivs {
		fs.accessInterval(iv.Lo, iv.Hi, priv, redOp, ev, &s.query)
	}
	vm.deps.Add(int64(len(s.query.list)))
	for _, d := range s.query.list {
		s.point.add(d)
	}
	s.query.reset()
}

// depScratch is the reusable dependence-gathering state of one issuer (the
// Runtime keeps one, guarded by issueMu): the distinct edges of the query in
// progress and of the point in progress.
type depScratch struct {
	query, point depSet
}

// depSetLinear bounds the linear-scan dedup of a depSet; past it, a map
// takes over. A circuit point has a handful of edges per query.
const depSetLinear = 16

// depSet is an insertion-ordered set of events without per-use garbage: a
// linear scan while small, a map (kept across resets) once it holds more
// than depSetLinear. nil and self are never added. Adding to a nil set is a
// no-op.
type depSet struct {
	list []*Event
	self *Event
	m    map[*Event]struct{}
}

func (s *depSet) add(e *Event) {
	if s == nil || e == nil || e == s.self {
		return
	}
	if len(s.list) > depSetLinear {
		if _, ok := s.m[e]; ok {
			return
		}
		s.m[e] = struct{}{}
	} else {
		for _, d := range s.list {
			if d == e {
				return
			}
		}
		if len(s.list) == depSetLinear {
			if s.m == nil {
				s.m = make(map[*Event]struct{}, 2*depSetLinear)
			}
			for _, d := range s.list {
				s.m[d] = struct{}{}
			}
			s.m[e] = struct{}{}
		}
	}
	s.list = append(s.list, e)
}

// reset empties the set, dropping its references to events.
func (s *depSet) reset() {
	if len(s.list) > depSetLinear {
		clear(s.m)
	}
	clear(s.list)
	s.list = s.list[:0]
	s.self = nil
}

// accessInterval walks the segments overlapping [lo, hi], splitting at the
// boundaries, applies the access to each covered piece, and creates fresh
// segments for uncovered gaps.
func (fs *fieldState) accessInterval(lo, hi int64, priv privilege.Privilege,
	redOp privilege.OpID, ev *Event, deps *depSet) {

	i := sort.Search(len(fs.segs), func(i int) bool { return fs.segs[i].hi >= lo })
	cur := lo
	for cur <= hi {
		if i >= len(fs.segs) || fs.segs[i].lo > hi {
			// Tail gap: the rest of [cur, hi] is untracked.
			fs.insertSegment(i, freshSegment(cur, hi, priv, redOp, ev))
			return
		}
		s := &fs.segs[i]
		if s.lo > cur {
			// Leading gap before this segment.
			gapHi := s.lo - 1
			fs.insertSegment(i, freshSegment(cur, gapHi, priv, redOp, ev))
			cur = gapHi + 1
			i++ // past the inserted gap segment; s shifted right by one
			continue
		}
		// s overlaps cur. Split off any prefix of s before cur.
		if s.lo < cur {
			prefix := s.cloneEpoch()
			prefix.hi = cur - 1
			s.lo = cur
			fs.insertSegment(i, prefix)
			i++
			s = &fs.segs[i]
		}
		// Split off any suffix of s beyond hi.
		if s.hi > hi {
			suffix := s.cloneEpoch()
			suffix.lo = hi + 1
			s.hi = hi
			fs.insertSegment(i+1, suffix)
			s = &fs.segs[i]
		}
		s.apply(priv, redOp, ev, deps)
		cur = s.hi + 1
		i++
	}
}

// cloneEpoch copies s with independent readers/reducers slices. Segment
// splits must not share backing arrays: sibling segments append to their
// epoch lists independently, and an append through one header with spare
// capacity would overwrite an event the other still references — silently
// dropping a dependence edge.
func (s *segment) cloneEpoch() segment {
	c := *s
	c.readers = append([]*Event(nil), s.readers...)
	c.reducers = append([]*Event(nil), s.reducers...)
	return c
}

func freshSegment(lo, hi int64, priv privilege.Privilege, redOp privilege.OpID, ev *Event) segment {
	s := segment{lo: lo, hi: hi}
	s.apply(priv, redOp, ev, nil)
	return s
}

// apply updates the segment's epoch state for an access and records the
// dependence edges in deps (which may be nil for fresh segments).
func (s *segment) apply(priv privilege.Privilege, redOp privilege.OpID, ev *Event, deps *depSet) {
	switch {
	case priv == privilege.Read:
		// Read-after-write and read-after-reduce.
		if len(s.reducers) > 0 {
			for _, r := range s.reducers {
				deps.add(r)
			}
		} else {
			deps.add(s.writer)
		}
		s.readers = append(s.readers, ev)

	case priv == privilege.Reduce:
		// Reduce-after-write and reduce-after-read; same-operator pending
		// reductions commute, different operators serialize. Readers stay in
		// the epoch: a later same-operator reducer has no edge through the
		// pending reducers (they commute), so dropping the readers here would
		// leave it unordered against a read it must follow. Only a write
		// closes the epoch and clears them.
		deps.add(s.writer)
		for _, r := range s.readers {
			deps.add(r)
		}
		if len(s.reducers) > 0 && s.redOp != redOp {
			for _, r := range s.reducers {
				deps.add(r)
			}
			// The displaced reducers keep ordering obligations against
			// later reducers of the new operator; track them as readers so
			// those edges (and a closing write's) still materialize.
			s.readers = append(s.readers, s.reducers...)
			s.reducers = s.reducers[:0]
		}
		s.redOp = redOp
		s.reducers = append(s.reducers, ev)

	default: // Write, ReadWrite
		deps.add(s.writer)
		for _, r := range s.readers {
			deps.add(r)
		}
		for _, r := range s.reducers {
			deps.add(r)
		}
		// A write closes the epoch. Its lists are truncated in place, not
		// dropped: every segment owns its backing arrays (cloneEpoch), so
		// the next epoch reuses them.
		s.writer = ev
		clear(s.readers)
		s.readers = s.readers[:0]
		clear(s.reducers)
		s.reducers = s.reducers[:0]
		s.redOp = privilege.OpNone
	}
}

func (fs *fieldState) insertSegment(i int, s segment) {
	fs.segs = append(fs.segs, segment{})
	copy(fs.segs[i+1:], fs.segs[i:])
	fs.segs[i] = s
}

// segmentCount returns the number of tracked segments (diagnostics).
func (vm *versionMap) segmentCount() int {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	n := 0
	for _, fs := range vm.fields {
		n += len(fs.segs)
	}
	return n
}
