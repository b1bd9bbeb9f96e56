package safety

import (
	"strings"
	"testing"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

func lineTree(t *testing.T, n int64, parts int) (*region.Tree, *region.Partition) {
	t.Helper()
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("line", domain.Range1(0, n-1), fs)
	p, err := tree.PartitionEqual(tree.Root(), "blocks", parts)
	if err != nil {
		t.Fatal(err)
	}
	return tree, p
}

func haloPartition(t *testing.T) *region.Partition {
	t.Helper()
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("grid", domain.FromRect(domain.Rect2(0, 0, 7, 7)), fs)
	p, err := tree.PartitionHalo2D(tree.Root(), "halo", 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeListing1FirstLoop(t *testing.T) {
	// for i = 0, N do foo(p[i]) end — identity functor over a disjoint
	// partition is trivially safe even with writes, resolved statically.
	_, p := lineTree(t, 100, 10)
	d := domain.Range1(0, 9)
	res := Analyze(d, []Arg{{Partition: p, Functor: projection.Identity(1), Priv: privilege.ReadWrite}}, Options{})
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	if res.Args[0].Method != MethodStatic {
		t.Errorf("method = %v, want static", res.Args[0].Method)
	}
	if res.DynamicEvaluations != 0 {
		t.Errorf("dynamic evaluations = %d, want 0", res.DynamicEvaluations)
	}
}

func TestAnalyzeListing2Rejected(t *testing.T) {
	// foo(p[i], q[i%3]) with writes(q) over [0,5): the paper's walkthrough
	// concludes this is ineligible.
	_, p := lineTree(t, 100, 10)
	_, q := lineTree(t, 30, 3)
	d := domain.Range1(0, 4)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Read},
		{Partition: q, Functor: projection.Modular1D(1, 0, 3), Priv: privilege.Write},
	}, Options{})
	if res.Safe {
		t.Fatal("Listing 2 example must be rejected")
	}
	if !strings.Contains(res.Reason, "argument 1") {
		t.Errorf("reason = %q", res.Reason)
	}
}

func TestAnalyzeReadOnlyAlwaysSafe(t *testing.T) {
	// Reads through an aliased partition with a non-injective functor are
	// still safe (self-check passes on privilege).
	halo := haloPartition(t)
	d := domain.FromRect(domain.Rect2(0, 0, 1, 1))
	res := Analyze(d, []Arg{
		{Partition: halo, Functor: projection.Constant(domain.Pt2(0, 0)), Priv: privilege.Read},
	}, Options{})
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	if res.Args[0].Method != MethodPrivilege {
		t.Errorf("method = %v", res.Args[0].Method)
	}
}

func TestAnalyzeWriteThroughAliasedPartitionRejected(t *testing.T) {
	halo := haloPartition(t)
	d := domain.FromRect(domain.Rect2(0, 0, 1, 1))
	res := Analyze(d, []Arg{
		{Partition: halo, Functor: projection.Identity(2), Priv: privilege.Write},
	}, Options{})
	if res.Safe {
		t.Fatal("write through aliased partition must be rejected")
	}
}

func TestAnalyzeReductionSelfCheckPasses(t *testing.T) {
	// Reductions pass the self-check even with a non-injective functor
	// (multiple tasks reducing into the same sub-collection commute).
	_, p := lineTree(t, 30, 3)
	d := domain.Range1(0, 4)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Modular1D(1, 0, 3), Priv: privilege.Reduce, RedOp: privilege.OpSumF64},
	}, Options{})
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
}

func TestAnalyzeDynamicFallback(t *testing.T) {
	// A quadratic functor over a small domain: static says Unknown, the
	// dynamic check proves injectivity.
	_, p := lineTree(t, 1000, 100)
	d := domain.Range1(0, 8)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Quadratic1D(1, 1, 0), Priv: privilege.Write},
	}, Options{})
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	if res.Args[0].Method != MethodDynamic {
		t.Errorf("method = %v, want dynamic", res.Args[0].Method)
	}
	if res.DynamicEvaluations == 0 {
		t.Error("expected dynamic evaluations")
	}
}

func TestAnalyzeCrossCheckSamePartition(t *testing.T) {
	// Two arguments on one disjoint partition, one write + one read, with
	// shifted functors: requires the dynamic cross-check.
	_, p := lineTree(t, 200, 20)
	d := domain.Range1(0, 9)
	// write p[i], read p[i+10]: disjoint images → safe.
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Write},
		{Partition: p, Functor: projection.Affine1D(1, 10), Priv: privilege.Read},
	}, Options{})
	if !res.Safe {
		t.Fatalf("unsafe: %s", res.Reason)
	}
	if res.CrossChecks != 1 {
		t.Errorf("cross checks = %d, want 1", res.CrossChecks)
	}
	// write p[i], read p[i+1]: overlapping images → unsafe.
	res = Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Write},
		{Partition: p, Functor: projection.Affine1D(1, 1), Priv: privilege.Read},
	}, Options{})
	if res.Safe {
		t.Fatal("overlapping images must be rejected")
	}
}

func TestAnalyzeCrossCheckAllReadsSkipped(t *testing.T) {
	_, p := lineTree(t, 100, 10)
	d := domain.Range1(0, 9)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Read},
		{Partition: p, Functor: projection.Affine1D(1, 1), Priv: privilege.Read},
	}, Options{})
	if !res.Safe || res.CrossChecks != 0 {
		t.Errorf("all-read group should skip cross-check: safe=%v checks=%d", res.Safe, res.CrossChecks)
	}
}

func TestAnalyzeCrossCheckSameOpReductions(t *testing.T) {
	_, p := lineTree(t, 100, 10)
	d := domain.Range1(0, 9)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Reduce, RedOp: privilege.OpSumF64},
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Reduce, RedOp: privilege.OpSumF64},
	}, Options{})
	if !res.Safe {
		t.Fatalf("same-op reductions should commute: %s", res.Reason)
	}
	// Different operators must not.
	res = Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Reduce, RedOp: privilege.OpSumF64},
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Reduce, RedOp: privilege.OpProdF64},
	}, Options{})
	if res.Safe {
		t.Fatal("mixed-op reductions on the same image must be rejected")
	}
}

func TestAnalyzeDistinctCollectionsSafe(t *testing.T) {
	_, p := lineTree(t, 100, 10)
	_, q := lineTree(t, 100, 10)
	d := domain.Range1(0, 9)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Write},
		{Partition: q, Functor: projection.Identity(1), Priv: privilege.Write},
	}, Options{})
	if !res.Safe {
		t.Fatalf("distinct collections: %s", res.Reason)
	}
}

func TestAnalyzeDifferentPartitionsSameTreeRejected(t *testing.T) {
	tree, p := lineTree(t, 100, 10)
	q, err := tree.PartitionEqual(tree.Root(), "other", 5)
	if err != nil {
		t.Fatal(err)
	}
	d := domain.Range1(0, 4)
	res := Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Write},
		{Partition: q, Functor: projection.Identity(1), Priv: privilege.Read},
	}, Options{})
	if res.Safe {
		t.Fatal("interfering args through different partitions of one collection must be rejected")
	}
	// But read-read through different partitions is fine.
	res = Analyze(d, []Arg{
		{Partition: p, Functor: projection.Identity(1), Priv: privilege.Read},
		{Partition: q, Functor: projection.Identity(1), Priv: privilege.Read},
	}, Options{})
	if !res.Safe {
		t.Fatalf("read-read: %s", res.Reason)
	}
}

func TestAnalyzeDOMSweepCase(t *testing.T) {
	// End-to-end DOM shape: write through a 2-d plane partition with the
	// 3-d → 2-d drop functor over a diagonal slice. Static: unknown;
	// dynamic: safe.
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "flux", Kind: region.F64})
	plane := region.MustNewTree("plane", domain.FromRect(domain.Rect2(0, 0, 3, 3)), fs)
	pp, err := plane.PartitionBlock2D(plane.Root(), "cells", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	diag := domain.DiagonalSlice3(domain.Rect3(0, 0, 0, 3, 3, 3), 4)
	res := Analyze(diag, []Arg{
		{Partition: pp, Functor: projection.DropTo2D(projection.PlaneXY), Priv: privilege.Write},
	}, Options{})
	if !res.Safe {
		t.Fatalf("DOM sweep projection should pass dynamically: %s", res.Reason)
	}
	if res.Args[0].Method != MethodDynamic {
		t.Errorf("method = %v, want dynamic", res.Args[0].Method)
	}
}
