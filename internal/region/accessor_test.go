package region

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
)

// panicOf runs fn and returns what it panicked with, or nil.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// checkAccessorAt requires every accessor method to agree with the root's
// checked Rect.Index at p: an in-bounds point addresses element Index(p),
// an out-of-bounds one panics with Index's own message.
func checkAccessorAt(t *testing.T, tree *Tree, p domain.Point) {
	t.Helper()
	root := tree.Domain.Bounds()
	f := MustFieldF64(tree.Root(), 0)
	g := MustFieldI64(tree.Root(), 1)
	if !root.Contains(p) {
		want := panicOf(func() { root.Index(p) })
		if want == nil {
			t.Fatalf("Rect.Index(%v) on %v did not panic", p, root)
		}
		for name, op := range map[string]func(){
			"F64.Get": func() { f.Get(p) }, "F64.Set": func() { f.Set(p, 1) }, "F64.Offset": func() { f.Offset(p) },
			"I64.Get": func() { g.Get(p) }, "I64.Set": func() { g.Set(p, 1) }, "I64.Offset": func() { g.Offset(p) },
		} {
			if got := panicOf(op); got != want {
				t.Fatalf("%s(%v) on root %v panicked with %v, want %v", name, p, root, got, want)
			}
		}
		return
	}
	i := root.Index(p)
	fdata, gdata := tree.f64[0], tree.i64[1]
	fdata[i], gdata[i] = 7, 7
	f.Set(p, float64(i)+0.5)
	g.Set(p, i+1)
	f.ReduceAll(privilege.OpSumF64, nil, []Fold[float64]{{Off: f.Offset(p), V: 1}})
	g.ReduceAll(privilege.OpSumI64, nil, []Fold[int64]{{Off: g.Offset(p), V: 1}})
	if fdata[i] != float64(i)+1.5 || gdata[i] != i+2 || f.Get(p) != fdata[i] || g.Get(p) != gdata[i] {
		t.Fatalf("point %v of root %v: accessors missed element %d", p, root, i)
	}
}

func accessorTree(t *testing.T, d domain.Domain) *Tree {
	t.Helper()
	fs := MustFieldSpace(Field{ID: 0, Name: "f", Kind: F64}, Field{ID: 1, Name: "i", Kind: I64})
	tree, err := NewTree(fmt.Sprint(d), d, fs)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestAccessorIndexMatchesRectIndex checks the 1-d fast path against
// Rect.Index on random 1-d roots, negative lower bounds and roots against
// either end of int64 included: the bounds and one past them, the extreme
// coordinates (where the fast path's subtraction wraps), points of the
// wrong dimension, and 2-d and 3-d roots, which take the checked path.
func TestAccessorIndexMatchesRectIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var roots []domain.Domain
	for range 50 {
		lo := rng.Int63n(2001) - 1000
		roots = append(roots, domain.Range1(lo, lo+rng.Int63n(64)))
	}
	roots = append(roots,
		domain.Range1(0, 0),
		domain.Range1(math.MinInt64, math.MinInt64+9),
		// Not up to MaxInt64 itself: Rect.Each cannot step past it.
		domain.Range1(math.MaxInt64-10, math.MaxInt64-1),
		domain.FromRect(domain.Rect2(-3, 2, 4, 6)),
		domain.FromRect(domain.Rect3(1, -2, 0, 3, 1, 2)))
	for _, d := range roots {
		tree := accessorTree(t, d)
		b := d.Bounds()
		var xs []int64
		for k := range 3 {
			lo, hi := b.Lo.C[k], b.Hi.C[k]
			xs = append(xs, lo, hi, lo-1, hi+1, math.MinInt64, math.MinInt64+1, math.MaxInt64, math.MaxInt64-1)
			if hi > lo {
				xs = append(xs, lo+rng.Int63n(hi-lo))
			}
		}
		for _, x := range xs {
			checkAccessorAt(t, tree, domain.Pt1(x))
			checkAccessorAt(t, tree, domain.Pt2(x, b.Lo.C[1]))
			checkAccessorAt(t, tree, domain.Pt3(b.Lo.C[0], x, b.Hi.C[2]))
			checkAccessorAt(t, tree, domain.Point{C: [domain.MaxDim]int64{x}})
		}
		b.Each(func(p domain.Point) bool {
			checkAccessorAt(t, tree, p)
			return true
		})
	}
}
