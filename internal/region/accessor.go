package region

import (
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
)

// AccF64 is a float64 field accessor bound to a region view. Get and Set
// address elements by index-space point; the underlying storage is the root
// collection's slab, so writes through one view are visible through every
// overlapping view (partitions are views, not copies).
type AccF64 struct {
	lin
	data []float64
}

// AccI64 is the int64 analog of AccF64.
type AccI64 struct {
	lin
	data []int64
}

// lin linearizes points of a tree's root rect into storage offsets. A 1-d
// root — every unstructured collection — caches its lower bound and extent,
// so an in-bounds 1-d point indexes with one subtraction and one unsigned
// compare (which also rejects coordinates below lo, and any wrap-around of
// the subtraction, since [lo, hi] itself cannot wrap). Every other point
// takes the root's checked Rect.Index, which panics on out-of-bounds points
// exactly as before. The root is held by pointer into its tree, which keeps
// accessors small enough to pass in registers.
//
// Each accessor method spells the fast path out in its own body, in-bounds
// case first: the method plus its checked fallback is over the compiler's
// inlining budget whichever way it is split, and the variants that moved
// the check into a helper, or inlined Get/Set around a call to one, measured
// slower on closure-style task bodies.
type lin struct {
	root   *domain.Rect
	lo     int64
	extent uint64 // 0 unless the root is 1-d: the fast path is off
}

func newLin(t *Tree) lin {
	l := lin{root: &t.bounds}
	if b := t.bounds; b.Dim() == 1 {
		l.lo, l.extent = b.Lo.C[0], uint64(b.Hi.C[0]-b.Lo.C[0])+1
	}
	return l
}

// FieldF64 returns a float64 accessor for the field on the given region.
func FieldF64(r *Region, id FieldID) (AccF64, error) {
	f, ok := r.Tree.Fields.Lookup(id)
	if !ok {
		return AccF64{}, fmt.Errorf("region: tree %q has no field %d", r.Tree.Name, id)
	}
	if f.Kind != F64 {
		return AccF64{}, fmt.Errorf("region: field %q is %v, not float64", f.Name, f.Kind)
	}
	return AccF64{lin: newLin(r.Tree), data: r.Tree.f64[id]}, nil
}

// FieldI64 returns an int64 accessor for the field on the given region.
func FieldI64(r *Region, id FieldID) (AccI64, error) {
	f, ok := r.Tree.Fields.Lookup(id)
	if !ok {
		return AccI64{}, fmt.Errorf("region: tree %q has no field %d", r.Tree.Name, id)
	}
	if f.Kind != I64 {
		return AccI64{}, fmt.Errorf("region: field %q is %v, not int64", f.Name, f.Kind)
	}
	return AccI64{lin: newLin(r.Tree), data: r.Tree.i64[id]}, nil
}

// MustFieldF64 is FieldF64 that panics on error.
func MustFieldF64(r *Region, id FieldID) AccF64 {
	a, err := FieldF64(r, id)
	if err != nil {
		panic(err)
	}
	return a
}

// MustFieldI64 is FieldI64 that panics on error.
func MustFieldI64(r *Region, id FieldID) AccI64 {
	a, err := FieldI64(r, id)
	if err != nil {
		panic(err)
	}
	return a
}

// Get returns the element at point p.
func (a AccF64) Get(p domain.Point) float64 {
	if i := uint64(p.C[0] - a.lo); p.Dim == 1 && i < a.extent {
		return a.data[i]
	}
	return a.data[a.root.Index(p)]
}

// Set stores v at point p.
func (a AccF64) Set(p domain.Point, v float64) {
	if i := uint64(p.C[0] - a.lo); p.Dim == 1 && i < a.extent {
		a.data[i] = v
		return
	}
	a.data[a.root.Index(p)] = v
}

// Reduce folds v into the element at p using the given reduction operator.
func (a AccF64) Reduce(op privilege.ReductionOp, p domain.Point, v float64) {
	i := uint64(p.C[0] - a.lo)
	if p.Dim != 1 || i >= a.extent {
		i = uint64(a.root.Index(p))
	}
	a.data[i] = op.FoldF64(a.data[i], v)
}

// Get returns the element at point p.
func (a AccI64) Get(p domain.Point) int64 {
	if i := uint64(p.C[0] - a.lo); p.Dim == 1 && i < a.extent {
		return a.data[i]
	}
	return a.data[a.root.Index(p)]
}

// Set stores v at point p.
func (a AccI64) Set(p domain.Point, v int64) {
	if i := uint64(p.C[0] - a.lo); p.Dim == 1 && i < a.extent {
		a.data[i] = v
		return
	}
	a.data[a.root.Index(p)] = v
}

// Reduce folds v into the element at p using the given reduction operator.
func (a AccI64) Reduce(op privilege.ReductionOp, p domain.Point, v int64) {
	i := uint64(p.C[0] - a.lo)
	if p.Dim != 1 || i >= a.extent {
		i = uint64(a.root.Index(p))
	}
	a.data[i] = op.FoldI64(a.data[i], v)
}

// FillF64 sets every element of the region's field to v.
func FillF64(r *Region, id FieldID, v float64) error {
	acc, err := FieldF64(r, id)
	if err != nil {
		return err
	}
	r.Domain.Each(func(p domain.Point) bool {
		acc.Set(p, v)
		return true
	})
	return nil
}

// FillI64 sets every element of the region's field to v.
func FillI64(r *Region, id FieldID, v int64) error {
	acc, err := FieldI64(r, id)
	if err != nil {
		return err
	}
	r.Domain.Each(func(p domain.Point) bool {
		acc.Set(p, v)
		return true
	})
	return nil
}

// SumF64 returns the sum of the field over the region; a convenience used by
// tests and examples to validate results.
func SumF64(r *Region, id FieldID) (float64, error) {
	acc, err := FieldF64(r, id)
	if err != nil {
		return 0, err
	}
	var s float64
	r.Domain.Each(func(p domain.Point) bool {
		s += acc.Get(p)
		return true
	})
	return s, nil
}
