package region

import (
	"fmt"
	"math"

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

// Offset returns the storage offset of the element at p. It panics, as Get
// and Set do, if p lies outside the tree.
func (l lin) Offset(p domain.Point) int {
	if i := uint64(p.C[0] - l.lo); p.Dim == 1 && i < l.extent {
		return int(i)
	}
	return int(l.root.Index(p))
}

// Fold is one entry of a list-style reduction instance: the storage offset
// of an element, as Offset resolves it, and a value to fold into it.
type Fold[T float64 | int64] struct {
	Off int
	V   T
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

// ReduceAll folds each pair into the element at its offset, in order, with
// op, the operator registered as id. A built-in operator runs as one loop
// with no call per fold, bit-identical to its FoldF64; any other operator
// is called once per fold.
func (a AccF64) ReduceAll(id privilege.OpID, op privilege.ReductionOp, folds []Fold[float64]) {
	d := a.data
	switch id {
	// Indexing folds, rather than copying each pair out, keeps the element
	// the instruction's first operand, as in the operator's a+b and a*b:
	// when both are NaN, the result is the element's NaN, not the fold's.
	case privilege.OpSumF64, privilege.OpSumI64:
		for k := range folds {
			d[folds[k].Off] += folds[k].V
		}
	case privilege.OpProdF64, privilege.OpProdI64:
		for k := range folds {
			d[folds[k].Off] *= folds[k].V
		}
	case privilege.OpMinF64, privilege.OpMinI64:
		for _, f := range folds {
			d[f.Off] = math.Min(d[f.Off], f.V)
		}
	case privilege.OpMaxF64, privilege.OpMaxI64:
		for _, f := range folds {
			d[f.Off] = math.Max(d[f.Off], f.V)
		}
	default:
		for _, f := range folds {
			d[f.Off] = op.FoldF64(d[f.Off], f.V)
		}
	}
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

// ReduceAll folds each pair into the element at its offset, in order, with
// op, the operator registered as id. A built-in operator runs as one loop
// with no call per fold, bit-identical to its FoldI64; any other operator
// is called once per fold.
func (a AccI64) ReduceAll(id privilege.OpID, op privilege.ReductionOp, folds []Fold[int64]) {
	d := a.data
	switch id {
	case privilege.OpSumF64, privilege.OpSumI64:
		for _, f := range folds {
			d[f.Off] += f.V
		}
	case privilege.OpProdF64, privilege.OpProdI64:
		for _, f := range folds {
			d[f.Off] *= f.V
		}
	case privilege.OpMinF64, privilege.OpMinI64:
		for _, f := range folds {
			d[f.Off] = min(d[f.Off], f.V)
		}
	case privilege.OpMaxF64, privilege.OpMaxI64:
		for _, f := range folds {
			d[f.Off] = max(d[f.Off], f.V)
		}
	default:
		for _, f := range folds {
			d[f.Off] = op.FoldI64(d[f.Off], f.V)
		}
	}
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
