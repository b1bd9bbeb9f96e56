package domain

import (
	"testing"
	"testing/quick"
)

func TestDenseDomainBasics(t *testing.T) {
	d := Range1(0, 9)
	if d.Sparse() {
		t.Error("Range1 should be dense")
	}
	if d.Volume() != 10 || d.Empty() {
		t.Errorf("Volume = %d", d.Volume())
	}
	if !d.Contains(Pt1(0)) || !d.Contains(Pt1(9)) || d.Contains(Pt1(10)) {
		t.Error("containment wrong")
	}
	if got := d.PointAt(3); !got.Eq(Pt1(3)) {
		t.Errorf("PointAt(3) = %v", got)
	}
}

func TestFromPointsDedupAndSort(t *testing.T) {
	d := FromPoints([]Point{Pt2(2, 2), Pt2(0, 1), Pt2(2, 2), Pt2(0, 0)})
	if !d.Sparse() {
		t.Fatal("FromPoints should be sparse")
	}
	if d.Volume() != 3 {
		t.Fatalf("Volume = %d, want 3 (dedup)", d.Volume())
	}
	want := []Point{Pt2(0, 0), Pt2(0, 1), Pt2(2, 2)}
	for i, w := range want {
		if got := d.PointAt(int64(i)); !got.Eq(w) {
			t.Errorf("PointAt(%d) = %v, want %v", i, got, w)
		}
	}
	if got, want := d.Bounds(), Rect2(0, 0, 2, 2); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
}

func TestFromPointsEmpty(t *testing.T) {
	d := FromPoints(nil)
	if !d.Empty() || d.Volume() != 0 {
		t.Errorf("empty FromPoints: Volume = %d", d.Volume())
	}
}

func TestFromPointsMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixed-dim FromPoints did not panic")
		}
	}()
	FromPoints([]Point{Pt1(0), Pt2(0, 0)})
}

func TestSparseContains(t *testing.T) {
	d := FromPoints([]Point{Pt1(1), Pt1(5), Pt1(9)})
	for _, x := range []int64{1, 5, 9} {
		if !d.Contains(Pt1(x)) {
			t.Errorf("should contain %d", x)
		}
	}
	for _, x := range []int64{0, 2, 4, 6, 10} {
		if d.Contains(Pt1(x)) {
			t.Errorf("should not contain %d", x)
		}
	}
}

func TestDiagonalSlice3(t *testing.T) {
	bounds := Rect3(0, 0, 0, 2, 2, 2)
	// Slice at diag 0 is just the origin; at diag 3 it is the anti-diagonal
	// plane; at diag 6 the far corner.
	if d := DiagonalSlice3(bounds, 0); d.Volume() != 1 || !d.Contains(Pt3(0, 0, 0)) {
		t.Errorf("diag 0: %v", d)
	}
	if d := DiagonalSlice3(bounds, 6); d.Volume() != 1 || !d.Contains(Pt3(2, 2, 2)) {
		t.Errorf("diag 6: %v", d)
	}
	d := DiagonalSlice3(bounds, 3)
	if d.Volume() != 7 {
		t.Errorf("diag 3 volume = %d, want 7", d.Volume())
	}
	d.Each(func(p Point) bool {
		if p.Sum() != 3 {
			t.Errorf("point %v has sum %d, want 3", p, p.Sum())
		}
		return true
	})
	// Total across all diagonals covers the cube exactly once.
	var total int64
	for diag := int64(0); diag <= 6; diag++ {
		total += DiagonalSlice3(bounds, diag).Volume()
	}
	if total != bounds.Volume() {
		t.Errorf("diagonal slices cover %d points, want %d", total, bounds.Volume())
	}
}

func TestDomainEq(t *testing.T) {
	a := Range1(0, 4)
	b := FromPoints([]Point{Pt1(0), Pt1(1), Pt1(2), Pt1(3), Pt1(4)})
	if !a.Eq(b) || !b.Eq(a) {
		t.Error("dense and equivalent sparse domains should be Eq")
	}
	c := FromPoints([]Point{Pt1(0), Pt1(1), Pt1(2), Pt1(3), Pt1(5)})
	if a.Eq(c) {
		t.Error("different point sets should not be Eq")
	}
}

func TestDomainOverlapsIntersect(t *testing.T) {
	a := Range1(0, 9)
	b := FromPoints([]Point{Pt1(9), Pt1(20)})
	if !a.Overlaps(b) {
		t.Error("should overlap at 9")
	}
	got := a.Intersect(b)
	if got.Volume() != 1 || !got.Contains(Pt1(9)) {
		t.Errorf("Intersect = %v", got)
	}
	c := FromPoints([]Point{Pt1(15)})
	if a.Overlaps(c) {
		t.Error("should not overlap")
	}
}

func TestDomainSplitDense1D(t *testing.T) {
	d := Range1(0, 9)
	chunks := d.Split(3)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	var total int64
	for i, c := range chunks {
		if c.Sparse() {
			t.Errorf("chunk %d should stay dense", i)
		}
		total += c.Volume()
	}
	if total != 10 {
		t.Errorf("chunks cover %d points, want 10", total)
	}
	// Volumes must be near-equal: 4,3,3.
	if chunks[0].Volume() != 4 || chunks[1].Volume() != 3 || chunks[2].Volume() != 3 {
		t.Errorf("chunk volumes = %d,%d,%d", chunks[0].Volume(), chunks[1].Volume(), chunks[2].Volume())
	}
	// Chunks must be disjoint and ordered.
	if chunks[0].Overlaps(chunks[1]) || chunks[1].Overlaps(chunks[2]) {
		t.Error("chunks overlap")
	}
}

func TestDomainSplitSparse(t *testing.T) {
	d := DiagonalSlice3(Rect3(0, 0, 0, 3, 3, 3), 4)
	chunks := d.Split(4)
	var total int64
	for _, c := range chunks {
		total += c.Volume()
	}
	if total != d.Volume() {
		t.Errorf("chunks cover %d, want %d", total, d.Volume())
	}
	for i := 0; i < len(chunks); i++ {
		for j := i + 1; j < len(chunks); j++ {
			if chunks[i].Overlaps(chunks[j]) {
				t.Errorf("chunks %d and %d overlap", i, j)
			}
		}
	}
}

func TestDomainPoints(t *testing.T) {
	d := FromRect(Rect2(0, 0, 1, 1))
	pts := d.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	want := []Point{Pt2(0, 0), Pt2(0, 1), Pt2(1, 0), Pt2(1, 1)}
	for i := range want {
		if !pts[i].Eq(want[i]) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// Property: Split never loses or duplicates points.
func TestDomainSplitPartitionProperty(t *testing.T) {
	f := func(size uint8, nChunks uint8) bool {
		n := int(nChunks%8) + 1
		d := Range1(0, int64(size%100))
		chunks := d.Split(n)
		var total int64
		for _, c := range chunks {
			total += c.Volume()
		}
		if total != d.Volume() {
			return false
		}
		for i := 0; i < len(chunks); i++ {
			for j := i + 1; j < len(chunks); j++ {
				if chunks[i].Overlaps(chunks[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sparse and dense representations agree on membership.
func TestDomainSparseDenseAgreementProperty(t *testing.T) {
	f := func(lo int8, span uint8, probe int8) bool {
		hi := int64(lo) + int64(span%20)
		dense := Range1(int64(lo), hi)
		sparse := FromPoints(dense.Points())
		p := Pt1(int64(probe))
		return dense.Contains(p) == sparse.Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// EachFrom(i) walks exactly PointAt(i), PointAt(i+1), ... to the end, on
// dense rects of 1–3 dims and on their sparse twins, and yields nothing
// from an index outside the domain.
func TestDomainEachFromMatchesPointAt(t *testing.T) {
	for _, r := range []Rect{Rect1(-3, 9), Rect2(-1, 2, 2, 5), Rect3(0, -2, 1, 2, 0, 3)} {
		for _, d := range []Domain{FromRect(r), FromPoints(FromRect(r).Points())} {
			n := d.Volume()
			for i := int64(-1); i <= n; i++ {
				var got []Point
				d.EachFrom(i, func(p Point) bool {
					got = append(got, p)
					return true
				})
				if i < 0 {
					if len(got) != 0 {
						t.Fatalf("%v from %d yielded %d points", d, i, len(got))
					}
					continue
				}
				if int64(len(got)) != n-i {
					t.Fatalf("%v from %d yielded %d points, want %d", d, i, len(got), n-i)
				}
				for k, p := range got {
					if want := d.PointAt(i + int64(k)); !p.Eq(want) {
						t.Fatalf("%v from %d: point %d is %v, want %v", d, i, k, p, want)
					}
				}
			}
		}
	}
}
