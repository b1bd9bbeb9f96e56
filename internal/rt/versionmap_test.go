package rt

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

func ivs(pairs ...int64) []region.Interval {
	out := make([]region.Interval, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, region.Interval{Lo: pairs[i], Hi: pairs[i+1]})
	}
	return out
}

func containsEvent(deps []*Event, e *Event) bool {
	for _, d := range deps {
		if d == e {
			return true
		}
	}
	return false
}

func TestVersionMapReadAfterWrite(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	if len(deps) != 0 {
		t.Errorf("first write deps = %d", len(deps))
	}
	r := NewEvent()
	deps = vm.access(1, 0, ivs(5, 14), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w) {
		t.Error("read overlapping write must depend on it")
	}
	// Read of a disjoint range has no deps.
	r2 := NewEvent()
	deps = vm.access(1, 0, ivs(20, 29), privilege.Read, privilege.OpNone, r2)
	if len(deps) != 0 {
		t.Errorf("disjoint read deps = %d", len(deps))
	}
}

func TestVersionMapWriteAfterRead(t *testing.T) {
	vm := newVersionMap(nil, nil)
	r1, r2 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r1)
	vm.access(1, 0, ivs(5, 14), privilege.Read, privilege.OpNone, r2)
	w := NewEvent()
	deps := vm.access(1, 0, ivs(7, 7), privilege.Write, privilege.OpNone, w)
	if !containsEvent(deps, r1) || !containsEvent(deps, r2) {
		t.Error("write must depend on both overlapping readers")
	}
}

func TestVersionMapWriteAfterWrite(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w1 := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w1)
	w2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w2)
	if !containsEvent(deps, w1) {
		t.Error("WAW must serialize")
	}
	// Third writer depends only on the second (epoch advanced).
	w3 := NewEvent()
	deps = vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w3)
	if containsEvent(deps, w1) || !containsEvent(deps, w2) {
		t.Errorf("third write should depend only on second")
	}
}

func TestVersionMapReadersDoNotDependOnEachOther(t *testing.T) {
	vm := newVersionMap(nil, nil)
	r1 := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r1)
	r2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r2)
	if len(deps) != 0 {
		t.Errorf("read-read deps = %d", len(deps))
	}
}

func TestVersionMapSameOpReductionsCommute(t *testing.T) {
	vm := newVersionMap(nil, nil)
	a, b := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, b)
	if containsEvent(deps, a) {
		t.Error("same-op reductions must not serialize")
	}
	// A read after the reductions depends on both.
	r := NewEvent()
	deps = vm.access(1, 0, ivs(3, 4), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, a) || !containsEvent(deps, b) {
		t.Error("read after reductions must depend on all reducers")
	}
}

func TestVersionMapDifferentOpReductionsSerialize(t *testing.T) {
	vm := newVersionMap(nil, nil)
	a, b := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, b)
	if !containsEvent(deps, a) {
		t.Error("different-op reductions must serialize")
	}
}

func TestVersionMapLaterReducersStillOrderAfterReaders(t *testing.T) {
	// Regression: a reduce used to clear the segment's readers after
	// depending on them, so a *later* same-operator reducer — which has no
	// edge through the pending reducers (they commute) — was left unordered
	// against the read (observed as a read racing a reducer's flush).
	vm := newVersionMap(nil, nil)
	r := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	a := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	b := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, b)
	if !containsEvent(deps, r) {
		t.Error("second same-op reduce must still be ordered after the earlier read")
	}
	if containsEvent(deps, a) {
		t.Error("same-op reductions must not serialize")
	}
}

func TestVersionMapOpSwitchKeepsDisplacedReducersOrdered(t *testing.T) {
	// When the reduction operator changes, the displaced reducers must keep
	// ordering later reducers of the new operator (which commute with each
	// other, so there is no transitive path through the first new-op
	// reducer).
	vm := newVersionMap(nil, nil)
	a := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, a)
	b := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, b)
	c := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpProdF64, c)
	if !containsEvent(deps, a) {
		t.Error("new-op reduce must be ordered after the displaced old-op reducer")
	}
	if containsEvent(deps, b) {
		t.Error("same-op reductions must not serialize")
	}
}

// TestVersionMapConflictOrderingProperty checks the map's core guarantee on
// random point sequences issued through accessPoint, the single-lock entry
// the physical stage uses, with one scratch reused across points as the
// runtime does: each point carries one to three requirements, each on one of
// two trees, over one to three gapped intervals and one to three fields,
// with a random privilege. Every pair of conflicting points (a shared tree,
// field and index, not read‖read, not same-operator reduce‖reduce) must end
// up transitively ordered by the returned dependence edges — any dropped
// edge, like the two regressions above, shows up as an unreachable
// predecessor. The edges a point gets must be distinct and never its own
// event, and they must be the union of what its (requirement, field) pairs
// return when issued one at a time, on the same counters.
func TestVersionMapConflictOrderingProperty(t *testing.T) {
	type req struct {
		tree   int
		ivs    []region.Interval
		fields []region.FieldID
		priv   privilege.Privilege
		redOp  privilege.OpID
	}
	privs := []privilege.Privilege{privilege.Read, privilege.Write, privilege.ReadWrite, privilege.Reduce}
	redOps := []privilege.OpID{privilege.OpSumF64, privilege.OpProdF64}
	fs := region.MustFieldSpace(
		region.Field{ID: 0, Name: "a", Kind: region.F64},
		region.Field{ID: 1, Name: "b", Kind: region.F64},
		region.Field{ID: 2, Name: "c", Kind: region.F64})
	const span = 32
	trees := []*region.Tree{
		region.MustNewTree("vm-a", domain.Range1(0, span-1), fs),
		region.MustNewTree("vm-b", domain.Range1(0, span-1), fs),
	}
	overlaps := func(a, b req) bool {
		if a.tree != b.tree || !region.IntervalsOverlap(a.ivs, b.ivs) {
			return false
		}
		for _, f := range a.fields {
			if slices.Contains(b.fields, f) {
				return true
			}
		}
		return false
	}
	conflict := func(as, bs []req) bool {
		for _, a := range as {
			for _, b := range bs {
				switch {
				case !overlaps(a, b):
				case a.priv == privilege.Read && b.priv == privilege.Read:
				case a.priv == privilege.Reduce && b.priv == privilege.Reduce && a.redOp == b.redOp:
				default:
					return true
				}
			}
		}
		return false
	}
	maxDeps := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		ops := make([][]req, n)
		prss := make([][]PhysicalRegion, n)
		regs := make([][]*region.Region, n)
		for i := range ops {
			for range 1 + rng.Intn(3) {
				rq := req{tree: rng.Intn(len(trees)), priv: privs[rng.Intn(len(privs))]}
				if rq.priv == privilege.Reduce {
					rq.redOp = redOps[rng.Intn(len(redOps))]
				}
				// One to three intervals with gaps between them.
				var pts []domain.Point
				lo := rng.Int63n(span / 2)
				for range 1 + rng.Intn(3) {
					if lo >= span {
						break
					}
					hi := min(lo+rng.Int63n(span/2), span-1)
					for x := lo; x <= hi; x++ {
						pts = append(pts, domain.Pt1(x))
					}
					lo = hi + 2 + rng.Int63n(4)
				}
				for f := range region.FieldID(3) {
					if len(rq.fields) == 0 || rng.Intn(2) == 0 {
						rq.fields = append(rq.fields, f)
					}
				}
				reg := &region.Region{Tree: trees[rq.tree], Domain: domain.FromPoints(pts)}
				rq.ivs = reg.Intervals()
				ops[i] = append(ops[i], rq)
				prss[i] = append(prss[i], PhysicalRegion{Region: reg, Priv: rq.priv, RedOp: rq.redOp, Fields: rq.fields})
				regs[i] = append(regs[i], reg)
			}
		}

		var q1, e1, q2, e2 metrics.Counter
		vm := newVersionMap(&q1, &e1)
		alone := newVersionMap(&q2, &e2)
		var scratch depScratch
		deps := make([][]*Event, n)
		idx := map[*Event]int{}
		for i := range ops {
			ev := NewEvent()
			idx[ev] = i
			deps[i] = slices.Clone(vm.accessPoint(prss[i], regs[i], ev, &scratch))
			maxDeps = max(maxDeps, len(deps[i]))
			seen := map[*Event]bool{}
			for _, d := range deps[i] {
				if d == ev || seen[d] {
					t.Fatalf("seed %d: op %d deps %v repeat an edge or name the op itself", seed, i, deps[i])
				}
				seen[d] = true
			}
			union := map[*Event]bool{}
			for _, pr := range prss[i] {
				for _, f := range pr.Fields {
					for _, d := range alone.access(pr.Region.Tree.ID, f, pr.Region.Intervals(), pr.Priv, pr.RedOp, ev) {
						union[d] = true
					}
				}
			}
			if !maps.Equal(seen, union) {
				t.Fatalf("seed %d: op %d deps %v, its pairs issued alone %v", seed, i, seen, union)
			}
		}
		if q1.Value() != q2.Value() || e1.Value() != e2.Value() {
			t.Fatalf("seed %d: accessPoint counted %d queries %d edges, one at a time %d %d",
				seed, q1.Value(), e1.Value(), q2.Value(), e2.Value())
		}
		for j := 0; j < n; j++ {
			reach := map[int]bool{}
			stack := []int{}
			for _, d := range deps[j] {
				stack = append(stack, idx[d])
			}
			for len(stack) > 0 {
				k := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[k] {
					continue
				}
				reach[k] = true
				for _, d := range deps[k] {
					stack = append(stack, idx[d])
				}
			}
			for i := 0; i < j; i++ {
				if conflict(ops[i], ops[j]) && !reach[i] {
					t.Fatalf("seed %d: op %d (%+v) not ordered after conflicting op %d (%+v)",
						seed, j, ops[j], i, ops[i])
				}
			}
		}
	}
	if maxDeps <= depSetLinear {
		t.Errorf("no point gathered more than %d edges: the map-backed dedup went untested", depSetLinear)
	}
}

func TestVersionMapReduceAfterWriteAndRead(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w, r := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	red := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Reduce, privilege.OpSumF64, red)
	if !containsEvent(deps, w) || !containsEvent(deps, r) {
		t.Error("reduce must depend on prior writer and readers")
	}
}

func TestVersionMapSegmentSplitting(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 99), privilege.Write, privilege.OpNone, w)
	// Write to the middle: splits [0,99] into three segments.
	w2 := NewEvent()
	vm.access(1, 0, ivs(40, 59), privilege.Write, privilege.OpNone, w2)
	if n := vm.segmentCount(); n != 3 {
		t.Errorf("segments = %d, want 3", n)
	}
	// A read of the left part depends on w only.
	r := NewEvent()
	deps := vm.access(1, 0, ivs(0, 39), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w) || containsEvent(deps, w2) {
		t.Errorf("left read deps wrong")
	}
	// A read of the middle depends on w2 only.
	r2 := NewEvent()
	deps = vm.access(1, 0, ivs(45, 50), privilege.Read, privilege.OpNone, r2)
	if containsEvent(deps, w) || !containsEvent(deps, w2) {
		t.Errorf("middle read deps wrong")
	}
}

func TestVersionMapSplitSegmentsHaveIndependentEpochs(t *testing.T) {
	// Regression: splitting a segment used to copy the struct without
	// cloning its readers/reducers slices, so both halves shared one backing
	// array. An append through one half with spare capacity then overwrote
	// an event the sibling still referenced, silently dropping a dependence
	// edge (observed as a read racing a reducer's flush under -race).
	vm := newVersionMap(nil, nil)
	e1, e2, e3 := NewEvent(), NewEvent(), NewEvent()
	// Three same-op reductions: reducers slice ends with spare capacity.
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e1)
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e2)
	vm.access(1, 0, ivs(0, 7), privilege.Reduce, privilege.OpSumF64, e3)
	// Split [0,7] into [0,3] and [4,7].
	r1 := NewEvent()
	vm.access(1, 0, ivs(0, 3), privilege.Read, privilege.OpNone, r1)
	// Append a reducer to each half; with a shared backing array the second
	// append clobbers the first half's new entry.
	e4, e5 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 3), privilege.Reduce, privilege.OpSumF64, e4)
	vm.access(1, 0, ivs(4, 7), privilege.Reduce, privilege.OpSumF64, e5)
	r2 := NewEvent()
	deps := vm.access(1, 0, ivs(0, 3), privilege.Read, privilege.OpNone, r2)
	if !containsEvent(deps, e4) {
		t.Error("read must depend on its half's own reducer (lost to sibling clobber?)")
	}
	if containsEvent(deps, e5) {
		t.Error("read must not depend on the other half's reducer")
	}
}

func TestVersionMapFieldsIndependent(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(1, 1, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 0 {
		t.Error("different fields must not interfere")
	}
}

func TestVersionMapTreesIndependent(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(2, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 0 {
		t.Error("different trees must not interfere")
	}
}

func TestVersionMapCompletedDepsRetained(t *testing.T) {
	// The dependence edge set must not depend on execution timing: an
	// already-triggered upstream event is still returned (waiting on it is
	// free), so trace capture sees every edge and dependents issued after
	// an upstream failure still observe its poison.
	vm := newVersionMap(nil, nil)
	w := NewEvent()
	w.Trigger()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w)
	r := NewEvent()
	deps := vm.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r)
	if len(deps) != 1 || deps[0] != w {
		t.Errorf("deps = %v, want the completed writer retained", deps)
	}

	vm2 := newVersionMap(nil, nil)
	p := NewEvent()
	p.Poison(fmt.Errorf("upstream died"))
	vm2.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, p)
	r2 := NewEvent()
	deps = vm2.access(1, 0, ivs(0, 9), privilege.Read, privilege.OpNone, r2)
	if err := WaitAllErr(deps); err == nil {
		t.Error("poison from a completed upstream writer must reach later dependents")
	}
}

func TestVersionMapNonePrivilegeNoop(t *testing.T) {
	vm := newVersionMap(nil, nil)
	e := NewEvent()
	if deps := vm.access(1, 0, ivs(0, 9), privilege.None, privilege.OpNone, e); deps != nil {
		t.Error("None access should be a no-op")
	}
}

func TestVersionMapMultiIntervalAccess(t *testing.T) {
	vm := newVersionMap(nil, nil)
	w1, w2 := NewEvent(), NewEvent()
	vm.access(1, 0, ivs(0, 9), privilege.Write, privilege.OpNone, w1)
	vm.access(1, 0, ivs(20, 29), privilege.Write, privilege.OpNone, w2)
	r := NewEvent()
	deps := vm.access(1, 0, ivs(5, 6, 25, 26), privilege.Read, privilege.OpNone, r)
	if !containsEvent(deps, w1) || !containsEvent(deps, w2) {
		t.Error("multi-interval read must collect deps from every interval")
	}
}
