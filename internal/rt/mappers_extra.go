package rt

import (
	"sync"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
)

// CyclicMapper distributes launch points round-robin across nodes — the
// classic cyclic distribution, useful when consecutive points have
// imbalanced work.
type CyclicMapper struct{}

// ShardPoint implements Mapper: point rank i goes to node i mod nodes.
func (CyclicMapper) ShardPoint(d domain.Domain, p domain.Point, nodes int) int {
	return int(rankOf(d, p) % int64(nodes))
}

// Slice implements Mapper: one slice per node holding its cyclic points.
func (CyclicMapper) Slice(d domain.Domain, nodes int) []Slice {
	buckets := make([][]domain.Point, nodes)
	i := int64(0)
	d.Each(func(p domain.Point) bool {
		n := int(i % int64(nodes))
		buckets[n] = append(buckets[n], p)
		i++
		return true
	})
	out := make([]Slice, 0, nodes)
	for n, pts := range buckets {
		if len(pts) > 0 {
			out = append(out, Slice{Domain: domain.FromPoints(pts), Node: n})
		}
	}
	return out
}

// SelectProcessor implements Mapper with round-robin by rank.
func (CyclicMapper) SelectProcessor(node int, task core.TaskID, p domain.Point, procs int) int {
	if procs <= 1 {
		return 0
	}
	return int(uint64(p.X()+p.Y()+p.Z()) % uint64(procs))
}

// MemoizingMapper caches sharding-functor evaluations. Sharding functors
// are pure (paper §5: "sharding functors are pure functions, which permit
// this mapping to be memoized for efficiency"), so the cache is always
// valid; Hits/Misses expose its effectiveness.
type MemoizingMapper struct {
	Inner Mapper

	mu     sync.Mutex
	cache  map[shardKey]int
	hits   int64
	misses int64
}

type shardKey struct {
	bounds domain.Rect
	volume int64
	point  domain.Point
	nodes  int
}

// NewMemoizingMapper wraps inner with a sharding cache.
func NewMemoizingMapper(inner Mapper) *MemoizingMapper {
	return &MemoizingMapper{Inner: inner, cache: map[shardKey]int{}}
}

// ShardPoint implements Mapper, consulting the cache first.
func (m *MemoizingMapper) ShardPoint(d domain.Domain, p domain.Point, nodes int) int {
	key := shardKey{bounds: d.Bounds(), volume: d.Volume(), point: p, nodes: nodes}
	m.mu.Lock()
	if n, ok := m.cache[key]; ok {
		m.hits++
		m.mu.Unlock()
		return n
	}
	m.misses++
	m.mu.Unlock()
	n := m.Inner.ShardPoint(d, p, nodes)
	m.mu.Lock()
	m.cache[key] = n
	m.mu.Unlock()
	return n
}

// ShardRange implements InvertibleMapper when the inner mapper does.
func (m *MemoizingMapper) ShardRange(d domain.Domain, node, nodes int) (lo, hi int64, ok bool) {
	if inv, is := m.Inner.(InvertibleMapper); is {
		return inv.ShardRange(d, node, nodes)
	}
	return 0, 0, false
}

// Slice implements Mapper by delegation (slicing is already per-launch).
func (m *MemoizingMapper) Slice(d domain.Domain, nodes int) []Slice {
	return m.Inner.Slice(d, nodes)
}

// SelectProcessor implements Mapper by delegation.
func (m *MemoizingMapper) SelectProcessor(node int, task core.TaskID, p domain.Point, procs int) int {
	return m.Inner.SelectProcessor(node, task, p, procs)
}

// Stats returns cache hits and misses.
func (m *MemoizingMapper) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// PinnedMapper places every task on one node; useful in tests and for
// reproducing centralized bottlenecks.
type PinnedMapper struct{ Node int }

// ShardPoint implements Mapper.
func (m PinnedMapper) ShardPoint(domain.Domain, domain.Point, int) int { return m.Node }

// Slice implements Mapper with a single slice.
func (m PinnedMapper) Slice(d domain.Domain, nodes int) []Slice {
	return []Slice{{Domain: d, Node: m.Node}}
}

// SelectProcessor implements Mapper.
func (m PinnedMapper) SelectProcessor(int, core.TaskID, domain.Point, int) int { return 0 }
