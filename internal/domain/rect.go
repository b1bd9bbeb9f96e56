package domain

import "fmt"

// Rect is a dense N-dimensional rectangle with inclusive bounds Lo..Hi.
// A rectangle is empty when any Hi coordinate is below the corresponding Lo.
type Rect struct {
	Lo, Hi Point
}

// Rect1 returns the 1-d rectangle [lo, hi].
func Rect1(lo, hi int64) Rect { return Rect{Lo: Pt1(lo), Hi: Pt1(hi)} }

// Rect2 returns the 2-d rectangle [lox,hix] x [loy,hiy].
func Rect2(lox, loy, hix, hiy int64) Rect {
	return Rect{Lo: Pt2(lox, loy), Hi: Pt2(hix, hiy)}
}

// Rect3 returns the 3-d rectangle with the given inclusive corners.
func Rect3(lox, loy, loz, hix, hiy, hiz int64) Rect {
	return Rect{Lo: Pt3(lox, loy, loz), Hi: Pt3(hix, hiy, hiz)}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return r.Lo.Dim }

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool {
	for i := 0; i < r.Dim(); i++ {
		if r.Hi.C[i] < r.Lo.C[i] {
			return true
		}
	}
	return r.Dim() == 0
}

// Volume returns the number of points contained in the rectangle.
func (r Rect) Volume() int64 {
	if r.Empty() {
		return 0
	}
	v := int64(1)
	for i := 0; i < r.Dim(); i++ {
		v *= r.Hi.C[i] - r.Lo.C[i] + 1
	}
	return v
}

// Contains reports whether p lies inside r. Points of the wrong dimension are
// never contained.
func (r Rect) Contains(p Point) bool {
	if p.Dim != r.Dim() {
		return false
	}
	for i := 0; i < p.Dim; i++ {
		if p.C[i] < r.Lo.C[i] || p.C[i] > r.Hi.C[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether every point of s lies inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Contains(s.Lo) && r.Contains(s.Hi)
}

// Overlaps reports whether r and s share at least one point.
func (r Rect) Overlaps(s Rect) bool {
	if r.Dim() != s.Dim() || r.Empty() || s.Empty() {
		return false
	}
	for i := 0; i < r.Dim(); i++ {
		if r.Hi.C[i] < s.Lo.C[i] || s.Hi.C[i] < r.Lo.C[i] {
			return false
		}
	}
	return true
}

// Intersect returns the largest rectangle contained in both r and s.
// The result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	if r.Dim() != s.Dim() {
		panic(fmt.Sprintf("domain: intersect of rects with dims %d and %d", r.Dim(), s.Dim()))
	}
	out := Rect{Lo: Point{Dim: r.Dim()}, Hi: Point{Dim: r.Dim()}}
	for i := 0; i < r.Dim(); i++ {
		out.Lo.C[i] = max64(r.Lo.C[i], s.Lo.C[i])
		out.Hi.C[i] = min64(r.Hi.C[i], s.Hi.C[i])
	}
	return out
}

// Index returns the row-major linearization of p within r, in [0, Volume).
// It panics if p is not contained in r; linearization of out-of-bounds points
// is a program error that must not be silently wrapped.
func (r Rect) Index(p Point) int64 {
	if !r.Contains(p) {
		panic(fmt.Sprintf("domain: point %v outside rect %v", p, r))
	}
	var idx int64
	for i := 0; i < r.Dim(); i++ {
		extent := r.Hi.C[i] - r.Lo.C[i] + 1
		idx = idx*extent + (p.C[i] - r.Lo.C[i])
	}
	return idx
}

// PointAt inverts Index: it returns the point at row-major offset idx within
// r. It panics if idx is outside [0, Volume).
func (r Rect) PointAt(idx int64) Point {
	if idx < 0 || idx >= r.Volume() {
		panic(fmt.Sprintf("domain: index %d outside rect %v of volume %d", idx, r, r.Volume()))
	}
	p := Point{Dim: r.Dim()}
	for i := r.Dim() - 1; i >= 0; i-- {
		extent := r.Hi.C[i] - r.Lo.C[i] + 1
		p.C[i] = r.Lo.C[i] + idx%extent
		idx /= extent
	}
	return p
}

// Union returns the smallest rectangle containing both r and s (their
// bounding box). Empty inputs are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	if r.Dim() != s.Dim() {
		panic(fmt.Sprintf("domain: union of rects with dims %d and %d", r.Dim(), s.Dim()))
	}
	out := Rect{Lo: Point{Dim: r.Dim()}, Hi: Point{Dim: r.Dim()}}
	for i := 0; i < r.Dim(); i++ {
		out.Lo.C[i] = min64(r.Lo.C[i], s.Lo.C[i])
		out.Hi.C[i] = max64(r.Hi.C[i], s.Hi.C[i])
	}
	return out
}

// Each calls fn for every point of r in row-major order. Iteration stops if
// fn returns false.
func (r Rect) Each(fn func(Point) bool) { r.EachFrom(0, fn) }

// EachFrom is Each starting at row-major offset i: it walks PointAt(i),
// PointAt(i+1), ... by incrementing coordinates instead of dividing per
// point. An offset outside [0, Volume) yields nothing.
func (r Rect) EachFrom(i int64, fn func(Point) bool) {
	if i < 0 || i >= r.Volume() {
		return
	}
	p := r.PointAt(i)
	for {
		if !fn(p) {
			return
		}
		// Row-major increment: bump the last coordinate, carrying leftward.
		i := r.Dim() - 1
		for ; i >= 0; i-- {
			p.C[i]++
			if p.C[i] <= r.Hi.C[i] {
				break
			}
			p.C[i] = r.Lo.C[i]
		}
		if i < 0 {
			return
		}
	}
}

// String renders the rectangle as "[<lo>..<hi>]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v..%v]", r.Lo, r.Hi)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
