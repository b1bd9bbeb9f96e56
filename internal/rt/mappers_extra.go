package rt

import "indexlaunch/internal/domain"

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

// PinnedMapper places every task on one node; useful in tests and for
// reproducing centralized bottlenecks.
type PinnedMapper struct{ Node int }

// ShardPoint implements Mapper.
func (m PinnedMapper) ShardPoint(domain.Domain, domain.Point, int) int { return m.Node }

// Slice implements Mapper with a single slice.
func (m PinnedMapper) Slice(d domain.Domain, nodes int) []Slice {
	return []Slice{{Domain: d, Node: m.Node}}
}
