package rt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

const (
	fieldRedF64 region.FieldID = 0
	fieldRedI64 region.FieldID = 1
)

// reduceTree returns a tree with one float64 and one int64 field over d,
// and its root as a one-piece partition for constant-functor reductions.
func reduceTree(t *testing.T, d domain.Domain) (*region.Tree, *region.Partition) {
	t.Helper()
	fs := region.MustFieldSpace(region.Field{ID: fieldRedF64, Name: "f", Kind: region.F64},
		region.Field{ID: fieldRedI64, Name: "i", Kind: region.I64})
	tree := region.MustNewTree(fmt.Sprint(d), d, fs)
	whole, err := tree.PartitionByColoring(tree.Root(), "whole", domain.Range1(0, 0),
		region.Coloring{domain.Pt1(0): d})
	if err != nil {
		t.Fatal(err)
	}
	return tree, whole
}

func reduceReq(part *region.Partition, f projection.Functor, op privilege.OpID, fields ...region.FieldID) core.Requirement {
	return core.Requirement{Partition: part, Functor: f, Priv: privilege.Reduce, RedOp: op, Fields: fields}
}

// A fold at a point outside its region tree panics in the task body, so
// only that point fails — with a TaskError carrying the panic value — and
// the runtime lives on: the other points' folds land exactly once, and a
// second launch's flush can take the fold lock again.
func TestOutOfTreeFoldFailsOnlyItsTask(t *testing.T) {
	const bad = 3
	for _, dcr := range []bool{true, false} {
		for _, field := range []region.FieldID{fieldRedF64, fieldRedI64} {
			t.Run(fmt.Sprintf("DCR=%v/field=%d", dcr, field), func(t *testing.T) {
				r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true})
				defer r.Shutdown()
				tree, _ := reduceTree(t, domain.Range1(0, 7))
				blocks, err := tree.PartitionEqual(tree.Root(), "blocks", 8)
				if err != nil {
					t.Fatal(err)
				}
				foldOut := true
				task := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
					p := ctx.Point
					out := foldOut && p.X() == bad
					if field == fieldRedF64 {
						red, err := ctx.ReduceF64(0, field)
						if err != nil {
							return nil, err
						}
						red.Fold(p, 1)
						if out {
							red.Fold(domain.Pt1(1000), 1)
						}
					} else {
						red, err := ctx.ReduceI64(0, field)
						if err != nil {
							return nil, err
						}
						red.Fold(p, 1)
						if out {
							red.Fold(domain.Pt1(1000), 1)
						}
					}
					return nil, nil
				})
				il := core.MustForall("fold", task, domain.Range1(0, 7),
					reduceReq(blocks, projection.Identity(1), privilege.OpSumF64, field))
				if _, err := r.ExecuteIndex(il); err != nil {
					t.Fatal(err)
				}
				err = r.FenceErr()
				var te *TaskError
				if !errors.As(err, &te) || te.Point != domain.Pt1(bad) ||
					!strings.Contains(fmt.Sprint(te.PanicValue), "outside rect") {
					t.Fatalf("fence error %v, want one TaskError at %v carrying the out-of-tree panic", err, domain.Pt1(bad))
				}
				if n := strings.Count(err.Error(), "rt: task "); n != 1 {
					t.Fatalf("%d tasks failed, want only %v: %v", n, domain.Pt1(bad), err)
				}
				foldOut = false
				if _, err := r.ExecuteIndex(il); err != nil {
					t.Fatal(err)
				}
				if err := r.FenceErr(); err != nil {
					t.Fatalf("second launch: %v", err)
				}
				f, i := region.MustFieldF64(tree.Root(), fieldRedF64), region.MustFieldI64(tree.Root(), fieldRedI64)
				for e := int64(0); e < 8; e++ {
					want := int64(2)
					if e == bad {
						want = 1
					}
					got := i.Get(domain.Pt1(e))
					if field == fieldRedF64 {
						got = int64(f.Get(domain.Pt1(e)))
					}
					if got != want {
						t.Errorf("element %d = %d, want %d", e, got, want)
					}
				}
			})
		}
	}
}

// xorOp is a user reduction operator: commutative and associative, so a
// launch's result does not depend on which task flushes first.
type xorOp struct{}

func (xorOp) Name() string                 { return "xor" }
func (xorOp) IdentityF64() float64         { return 0 }
func (xorOp) FoldF64(a, b float64) float64 { return float64(int64(a) ^ int64(b)) }
func (xorOp) IdentityI64() int64           { return 0 }
func (xorOp) FoldI64(a, b int64) int64     { return a ^ b }

var userXor = privilege.RegisterOp(xorOp{})

var exactOps = []privilege.OpID{
	privilege.OpSumF64, privilege.OpProdF64, privilege.OpMinF64, privilege.OpMaxF64,
	privilege.OpSumI64, privilege.OpProdI64, privilege.OpMinI64, privilege.OpMaxI64, userXor,
}

// exactDomains are a 1-d tree, whose folds resolve on the accessor's fast
// path, and a 2-d one, whose folds go through Rect.Index.
var exactDomains = []domain.Domain{domain.Range1(-2, 1), domain.FromRect(domain.Rect2(0, 0, 1, 1))}

// Within one task, every operator's flush is bit-for-bit the same as
// folding the task's sequence, in order, through the operator's own FoldF64
// and FoldI64 — many folds per element, NaN, ±0 and ±Inf included.
func TestReductionFlushMatchesOperatorFold(t *testing.T) {
	specialF := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 3, -2.5, 1e308, 5e-324,
		math.Inf(1), math.Inf(-1), math.NaN()}
	specialI := []int64{0, 1, -1, 3, -7, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, d := range exactDomains {
		for _, id := range exactOps {
			op := privilege.MustOp(id)
			t.Run(fmt.Sprintf("%v/%s", d, op.Name()), func(t *testing.T) {
				r := MustNew(Config{Nodes: 1, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
				defer r.Shutdown()
				tree, whole := reduceTree(t, d)
				pts := d.Points()
				rng := rand.New(rand.NewSource(int64(id)))
				type foldF struct {
					p domain.Point
					v float64
				}
				type foldI struct {
					p domain.Point
					v int64
				}
				var fs []foldF
				var is []foldI
				for range 400 {
					fs = append(fs, foldF{pts[rng.Intn(len(pts))], specialF[rng.Intn(len(specialF))]})
					is = append(is, foldI{pts[rng.Intn(len(pts))], specialI[rng.Intn(len(specialI))]})
				}
				f, i := region.MustFieldF64(tree.Root(), fieldRedF64), region.MustFieldI64(tree.Root(), fieldRedI64)
				wantF, wantI := map[domain.Point]float64{}, map[domain.Point]int64{}
				for k, p := range pts {
					f.Set(p, specialF[k%2]) // +0 and -0
					i.Set(p, int64(k))
					wantF[p], wantI[p] = f.Get(p), i.Get(p)
				}
				for _, x := range fs {
					wantF[x.p] = op.FoldF64(wantF[x.p], x.v)
				}
				for _, x := range is {
					wantI[x.p] = op.FoldI64(wantI[x.p], x.v)
				}
				task := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
					rf, err := ctx.ReduceF64(0, fieldRedF64)
					if err != nil {
						return nil, err
					}
					ri, err := ctx.ReduceI64(0, fieldRedI64)
					if err != nil {
						return nil, err
					}
					for _, x := range fs {
						rf.Fold(x.p, x.v)
					}
					for _, x := range is {
						ri.Fold(x.p, x.v)
					}
					return nil, nil
				})
				if _, err := r.ExecuteIndex(core.MustForall("fold", task, domain.Range1(0, 0),
					reduceReq(whole, projection.Constant(domain.Pt1(0)), id, fieldRedF64, fieldRedI64))); err != nil {
					t.Fatal(err)
				}
				if err := r.FenceErr(); err != nil {
					t.Fatal(err)
				}
				for _, p := range pts {
					if got, want := f.Get(p), wantF[p]; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("f64 element %v = %v (%#x), want %v (%#x)", p, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if got, want := i.Get(p), wantI[p]; got != want {
						t.Errorf("i64 element %v = %d, want %d", p, got, want)
					}
				}
			})
		}
	}
}

// Across the tasks of one launch, on integer-valued data where every
// operator's result is independent of flush order, the folds of many tasks
// into shared elements match a sequential model exactly.
func TestReductionAcrossTasksMatchesSequentialModel(t *testing.T) {
	const points, perPoint = 16, 12
	valsF := []float64{1, -1, 2, -2, 3, 5}
	for _, d := range exactDomains {
		for _, id := range exactOps {
			op := privilege.MustOp(id)
			t.Run(fmt.Sprintf("%v/%s", d, op.Name()), func(t *testing.T) {
				r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
				defer r.Shutdown()
				tree, whole := reduceTree(t, d)
				pts := d.Points()
				// fold is the k-th fold of launch point x: a pure function of
				// both, so the model and the tasks agree on it.
				fold := func(x int64, k int) (domain.Point, float64) {
					h := x*perPoint + int64(k)
					return pts[(h*7)%int64(len(pts))], valsF[(h*5)%int64(len(valsF))]
				}
				f, i := region.MustFieldF64(tree.Root(), fieldRedF64), region.MustFieldI64(tree.Root(), fieldRedI64)
				wantF, wantI := map[domain.Point]float64{}, map[domain.Point]int64{}
				for k, p := range pts {
					f.Set(p, float64(k+1))
					i.Set(p, int64(k+1))
					wantF[p], wantI[p] = float64(k+1), int64(k+1)
				}
				for x := int64(0); x < points; x++ {
					for k := range perPoint {
						p, v := fold(x, k)
						wantF[p] = op.FoldF64(wantF[p], v)
						wantI[p] = op.FoldI64(wantI[p], int64(v))
					}
				}
				task := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
					rf, err := ctx.ReduceF64(0, fieldRedF64)
					if err != nil {
						return nil, err
					}
					ri, err := ctx.ReduceI64(0, fieldRedI64)
					if err != nil {
						return nil, err
					}
					for k := range perPoint {
						p, v := fold(ctx.Point.X(), k)
						rf.Fold(p, v)
						ri.Fold(p, int64(v))
					}
					return nil, nil
				})
				if _, err := r.ExecuteIndex(core.MustForall("fold", task, domain.Range1(0, points-1),
					reduceReq(whole, projection.Constant(domain.Pt1(0)), id, fieldRedF64, fieldRedI64))); err != nil {
					t.Fatal(err)
				}
				if err := r.FenceErr(); err != nil {
					t.Fatal(err)
				}
				for _, p := range pts {
					if got := f.Get(p); got != wantF[p] {
						t.Errorf("f64 element %v = %v, want %v", p, got, wantF[p])
					}
					if got := i.Get(p); got != wantI[p] {
						t.Errorf("i64 element %v = %d, want %d", p, got, wantI[p])
					}
				}
			})
		}
	}
}
