package rt

import "indexlaunch/internal/domain"

// Mapper controls all distribution decisions the runtime makes (paper §5:
// "distribution in Legion is entirely under the control of the end user").
// In DCR mode the runtime consults ShardPoint (the sharding functor); in
// centralized mode it consults Slice (the slicing functor).
type Mapper interface {
	// ShardPoint is the sharding functor: it returns the node that owns
	// launch point p of a launch over domain d, for a machine of nodes
	// nodes. It must be a pure function — every replicated shard evaluates
	// it independently and the results must agree.
	ShardPoint(d domain.Domain, p domain.Point, nodes int) int

	// Slice is the slicing functor: it decomposes a launch domain into
	// slices assigned to nodes. Slicing may be recursive in Legion; here a
	// single-level decomposition is produced and the broadcast tree over
	// slices is handled by the distribution stage.
	Slice(d domain.Domain, nodes int) []Slice
}

// Slice names a sub-domain of an index launch assigned to one node.
type Slice struct {
	Domain domain.Domain
	Node   int
}

// InvertibleMapper is a Mapper whose sharding functor can name a node's
// points, like Legion's invertible sharding functors: ShardRange returns the
// ranks [lo, hi) of d that ShardPoint gives node (ok false if it cannot
// say), nodes 0..nodes-1's ranges tiling d in order. DCR files by them.
type InvertibleMapper interface {
	ShardRange(d domain.Domain, node, nodes int) (lo, hi int64, ok bool)
}

// BlockMapper is the default mapper: contiguous blocks of the launch domain
// are assigned to consecutive nodes. Both its functors and its inverse are
// one rule, domain.Block, so DCR and non-DCR runs place tasks identically.
type BlockMapper struct{}

// ShardPoint implements Mapper: p goes to the block holding its rank.
// Dense domains rank row-major in O(1), sparse ones in O(log |D|).
func (BlockMapper) ShardPoint(d domain.Domain, p domain.Point, nodes int) int {
	return domain.BlockOf(d.Volume(), rankOf(d, p), nodes)
}

// ShardRange implements InvertibleMapper: node's block.
func (BlockMapper) ShardRange(d domain.Domain, node, nodes int) (lo, hi int64, ok bool) {
	lo, hi = domain.Block(d.Volume(), node, nodes)
	return lo, hi, true
}

// Slice implements Mapper by splitting the domain into one near-equal block
// per node, skipping empty blocks.
func (BlockMapper) Slice(d domain.Domain, nodes int) []Slice {
	chunks := d.Split(nodes)
	out := make([]Slice, 0, len(chunks))
	for n, c := range chunks {
		if !c.Empty() {
			out = append(out, Slice{Domain: c, Node: n})
		}
	}
	return out
}

// rankOf returns p's rank in d, -1 when d does not hold p.
func rankOf(d domain.Domain, p domain.Point) int64 {
	if !d.Sparse() && d.Bounds().Contains(p) {
		return d.Bounds().Index(p)
	}
	lo, hi := int64(0), d.Volume()-1
	for lo <= hi {
		mid := (lo + hi) / 2
		q := d.PointAt(mid)
		switch {
		case q.Eq(p):
			return mid
		case q.Less(p):
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return -1
}
