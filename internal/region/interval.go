package region

import (
	"sort"

	"indexlaunch/internal/domain"
)

// Interval is an inclusive range [Lo, Hi] of linearized root-domain indices.
// Subregions expose their point sets as sorted, non-overlapping interval
// lists; dependence analysis (the version map) operates on these intervals,
// which is the in-memory analog of the paper's bounding-volume hierarchy
// over sub-collections.
type Interval struct {
	Lo, Hi int64
}

// Len returns the number of indices covered by the interval.
func (iv Interval) Len() int64 { return iv.Hi - iv.Lo + 1 }

// Overlaps reports whether two intervals share an index.
func (iv Interval) Overlaps(o Interval) bool { return iv.Lo <= o.Hi && o.Lo <= iv.Hi }

// IntervalsOf computes the sorted, coalesced interval list of the points of d
// linearized within root (row-major). Every point of d must be contained in
// root.
func IntervalsOf(d domain.Domain, root domain.Rect) []Interval {
	if d.Empty() {
		return nil
	}
	// Dense fast path: each row of the sub-rectangle is one contiguous run.
	if !d.Sparse() {
		return rectIntervals(d.Bounds(), root)
	}
	idxs := make([]int64, 0, d.Volume())
	d.Each(func(p domain.Point) bool {
		idxs = append(idxs, root.Index(p))
		return true
	})
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return coalesce(idxs)
}

func rectIntervals(r, root domain.Rect) []Interval {
	if r.Empty() {
		return nil
	}
	switch r.Dim() {
	case 1:
		return []Interval{{Lo: root.Index(r.Lo), Hi: root.Index(r.Hi)}}
	case 2:
		rowLen := r.Hi.C[1] - r.Lo.C[1] + 1
		out := make([]Interval, 0, r.Hi.C[0]-r.Lo.C[0]+1)
		for x := r.Lo.C[0]; x <= r.Hi.C[0]; x++ {
			lo := root.Index(domain.Pt2(x, r.Lo.C[1]))
			out = append(out, Interval{Lo: lo, Hi: lo + rowLen - 1})
		}
		return mergeAdjacent(out)
	default:
		rowLen := r.Hi.C[2] - r.Lo.C[2] + 1
		out := make([]Interval, 0, (r.Hi.C[0]-r.Lo.C[0]+1)*(r.Hi.C[1]-r.Lo.C[1]+1))
		for x := r.Lo.C[0]; x <= r.Hi.C[0]; x++ {
			for y := r.Lo.C[1]; y <= r.Hi.C[1]; y++ {
				lo := root.Index(domain.Pt3(x, y, r.Lo.C[2]))
				out = append(out, Interval{Lo: lo, Hi: lo + rowLen - 1})
			}
		}
		return mergeAdjacent(out)
	}
}

func coalesce(sorted []int64) []Interval {
	var out []Interval
	for _, idx := range sorted {
		if n := len(out); n > 0 && out[n-1].Hi+1 == idx {
			out[n-1].Hi = idx
		} else if n > 0 && out[n-1].Hi >= idx {
			continue // duplicate index
		} else {
			out = append(out, Interval{Lo: idx, Hi: idx})
		}
	}
	return out
}

// mergeAdjacent merges touching or overlapping intervals in a sorted list.
func mergeAdjacent(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi+1 {
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Union sorts ivs in place and merges touching or overlapping intervals,
// returning the sorted, disjoint runs that cover the same indices.
func Union(ivs []Interval) []Interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	return mergeAdjacent(ivs)
}

// IntervalsOverlap reports whether two sorted interval lists share an index.
func IntervalsOverlap(a, b []Interval) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Overlaps(b[j]) {
			return true
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// IntervalsVolume returns the total number of indices covered by a sorted,
// non-overlapping interval list.
func IntervalsVolume(ivs []Interval) int64 {
	var v int64
	for _, iv := range ivs {
		v += iv.Len()
	}
	return v
}
