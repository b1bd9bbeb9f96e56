package domain

import (
	"fmt"
	"sort"
)

// Domain is a finite set of N-dimensional points. Dense domains are backed by
// a single rectangle; sparse domains by an explicit, deduplicated, sorted
// point list (used for e.g. the diagonal-slice launch domains of
// discrete-ordinates sweeps). A Domain value is immutable after construction.
type Domain struct {
	rect   Rect
	points []Point // sorted, deduplicated; non-nil iff sparse
	sparse bool
}

// FromRect returns the dense domain covering exactly the points of r.
func FromRect(r Rect) Domain { return Domain{rect: r} }

// FromPoints returns the sparse domain holding the given points. Duplicates
// are removed. All points must share a dimensionality. An empty input yields
// an empty 1-d domain.
func FromPoints(pts []Point) Domain {
	if len(pts) == 0 {
		return Domain{rect: Rect1(0, -1)}
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	out := sorted[:1]
	bounds := Rect{Lo: sorted[0], Hi: sorted[0]}
	for _, p := range sorted[1:] {
		if p.Dim != sorted[0].Dim {
			panic(fmt.Sprintf("domain: mixed dimensionality %d and %d in FromPoints", sorted[0].Dim, p.Dim))
		}
		if !p.Eq(out[len(out)-1]) {
			out = append(out, p)
			bounds = bounds.Union(Rect{Lo: p, Hi: p})
		}
	}
	return Domain{rect: bounds, points: out, sparse: true}
}

// Range1 returns the dense 1-d domain [lo, hi].
func Range1(lo, hi int64) Domain { return FromRect(Rect1(lo, hi)) }

// DiagonalSlice3 returns the sparse 3-d domain of points inside bounds whose
// coordinate sum equals diag. These are the wavefront launch domains of a
// corner-to-corner sweep (paper §6.2.3): as the sweep advances, diag ranges
// over [loSum, hiSum] and each slice is launched as one index launch.
func DiagonalSlice3(bounds Rect, diag int64) Domain {
	if bounds.Dim() != 3 {
		panic("domain: DiagonalSlice3 requires a 3-d bounds rect")
	}
	var pts []Point
	for x := bounds.Lo.C[0]; x <= bounds.Hi.C[0]; x++ {
		for y := bounds.Lo.C[1]; y <= bounds.Hi.C[1]; y++ {
			z := diag - x - y
			if z >= bounds.Lo.C[2] && z <= bounds.Hi.C[2] {
				pts = append(pts, Pt3(x, y, z))
			}
		}
	}
	return FromPoints(pts)
}

// Dim returns the dimensionality of the domain's points.
func (d Domain) Dim() int { return d.rect.Dim() }

// Sparse reports whether the domain is represented by an explicit point list.
func (d Domain) Sparse() bool { return d.sparse }

// Bounds returns the tight bounding rectangle of the domain.
func (d Domain) Bounds() Rect { return d.rect }

// Volume returns the number of points in the domain.
func (d Domain) Volume() int64 {
	if d.sparse {
		return int64(len(d.points))
	}
	return d.rect.Volume()
}

// Empty reports whether the domain contains no points.
func (d Domain) Empty() bool { return d.Volume() == 0 }

// Contains reports whether p is a member of the domain.
func (d Domain) Contains(p Point) bool {
	if !d.sparse {
		return d.rect.Contains(p)
	}
	if p.Dim != d.Dim() {
		return false
	}
	i := sort.Search(len(d.points), func(i int) bool { return !d.points[i].Less(p) })
	return i < len(d.points) && d.points[i].Eq(p)
}

// PointAt returns the i-th point of the domain in row-major (dense) or sorted
// (sparse) order. It panics if i is out of range.
func (d Domain) PointAt(i int64) Point {
	if d.sparse {
		if i < 0 || i >= int64(len(d.points)) {
			panic(fmt.Sprintf("domain: index %d outside sparse domain of %d points", i, len(d.points)))
		}
		return d.points[i]
	}
	return d.rect.PointAt(i)
}

// Each calls fn for every point of the domain in canonical order. Iteration
// stops early if fn returns false.
func (d Domain) Each(fn func(Point) bool) {
	if d.sparse {
		for _, p := range d.points {
			if !fn(p) {
				return
			}
		}
		return
	}
	d.rect.Each(fn)
}

// EachFrom is Each starting at the i-th point (PointAt(i)), walking on from
// there without a per-point PointAt. An index outside [0, Volume) yields
// nothing.
func (d Domain) EachFrom(i int64, fn func(Point) bool) {
	if d.sparse {
		if i < 0 {
			return
		}
		for _, p := range d.points[min(i, int64(len(d.points))):] {
			if !fn(p) {
				return
			}
		}
		return
	}
	d.rect.EachFrom(i, fn)
}

// Points returns a freshly allocated slice of all points in canonical order.
func (d Domain) Points() []Point {
	out := make([]Point, 0, d.Volume())
	d.Each(func(p Point) bool {
		out = append(out, p)
		return true
	})
	return out
}

// Eq reports whether two domains contain exactly the same point set.
func (d Domain) Eq(e Domain) bool {
	if d.Volume() != e.Volume() || d.Dim() != e.Dim() {
		return false
	}
	if !d.sparse && !e.sparse {
		return d.rect == e.rect
	}
	eq := true
	i := int64(0)
	d.Each(func(p Point) bool {
		if !p.Eq(e.PointAt(i)) {
			eq = false
			return false
		}
		i++
		return true
	})
	return eq
}

// Overlaps reports whether the domains share at least one point.
func (d Domain) Overlaps(e Domain) bool {
	if d.Dim() != e.Dim() || !d.rect.Overlaps(e.rect) {
		return false
	}
	if !d.sparse && !e.sparse {
		return true // bounding rects are exact for dense domains
	}
	// Iterate the smaller, probe the larger.
	small, big := d, e
	if small.Volume() > big.Volume() {
		small, big = big, small
	}
	found := false
	small.Each(func(p Point) bool {
		if big.Contains(p) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Intersect returns the domain of points contained in both d and e.
func (d Domain) Intersect(e Domain) Domain {
	if !d.sparse && !e.sparse {
		return FromRect(d.rect.Intersect(e.rect))
	}
	small, big := d, e
	if small.Volume() > big.Volume() {
		small, big = big, small
	}
	var pts []Point
	small.Each(func(p Point) bool {
		if big.Contains(p) {
			pts = append(pts, p)
		}
		return true
	})
	return FromPoints(pts)
}

// Split partitions the domain into n contiguous chunks of near-equal volume,
// in canonical order: chunk i holds ranks Block(Volume(), i, n), none when n
// exceeds the volume. It is the building block for slicing functors.
func (d Domain) Split(n int) []Domain {
	if n <= 0 {
		panic("domain: Split with non-positive chunk count")
	}
	vol, out, pts := d.Volume(), make([]Domain, n), d.points
	if !d.sparse && d.Dim() != 1 {
		pts = d.Points() // dense 1-d chunks stay dense
	}
	for i := range out {
		if lo, hi := Block(vol, i, n); pts == nil {
			out[i] = Range1(d.rect.Lo.C[0]+lo, d.rect.Lo.C[0]+hi-1)
		} else {
			out[i] = FromPoints(pts[lo:hi])
		}
	}
	return out
}

// Block is the one block rule: of vol ranks cut into n contiguous chunks of
// near-equal size, chunk i holds ranks [lo, hi), the first vol%n chunks one
// rank more than the rest. BlockOf inverts it.
func Block(vol int64, i, n int) (lo, hi int64) {
	q, rem, k := vol/int64(n), vol%int64(n), int64(i)
	lo = k*q + min(k, rem)
	if hi = lo + q; k < rem {
		hi++
	}
	return lo, hi
}

// BlockOf returns the chunk of Block(vol, ·, n) that holds rank.
func BlockOf(vol, rank int64, n int) int {
	q, rem := vol/int64(n), vol%int64(n)
	if rank < rem*(q+1) {
		return int(rank / (q + 1))
	}
	return int(rem + (rank-rem*(q+1))/q)
}

// String renders dense domains as their rect and sparse domains as a point
// count plus bounds.
func (d Domain) String() string {
	if d.sparse {
		return fmt.Sprintf("sparse(%d pts in %v)", len(d.points), d.rect)
	}
	return d.rect.String()
}
