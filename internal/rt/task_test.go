package rt

import (
	"errors"
	"sync"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// The fold pool hands buffers back last in, first out, and refuses the
// empty and the oversized.
func TestFoldPoolKeepsOnlyReusableBuffers(t *testing.T) {
	var pool foldPool
	if takeFolds(&pool.f64) != nil {
		t.Fatal("an empty pool lent a buffer")
	}
	small, big := make([]foldItem, 3, 8), make([]foldItem, 0, maxPooledFolds+1)
	putFolds(&pool.f64, nil)
	putFolds(&pool.f64, big)
	putFolds(&pool.f64, small)
	if len(pool.f64) != 1 {
		t.Fatalf("pool holds %d buffers, want only the small one", len(pool.f64))
	}
	if b := takeFolds(&pool.f64); len(b) != 0 || cap(b) != 8 {
		t.Fatalf("took len %d cap %d, want the small buffer emptied", len(b), cap(b))
	}
}

// Reduction instances borrow their buffers from the runtime: a committed
// task returns them after its flush, a failed attempt's buffer is dropped
// with its folds, and the folds that land are exactly the committed ones.
func TestReductionBuffersReturnAfterFlush(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Retry: RetryPolicy{Max: 1}})
	defer r.Shutdown()
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("folds", domain.Range1(0, 0), fs)
	part, err := tree.PartitionEqual(tree.Root(), "whole", 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	failed := map[int64]bool{}
	task := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
		red, err := ctx.ReduceF64(0, 0)
		if err != nil {
			return nil, err
		}
		for range 10 {
			red.Fold(domain.Pt1(0), 1)
		}
		// Each point's first attempt fails after folding: its folds must
		// not land, and its retry folds again.
		mu.Lock()
		first := !failed[ctx.Point.X()]
		failed[ctx.Point.X()] = true
		mu.Unlock()
		if first {
			return nil, errors.New("first attempt fails")
		}
		return nil, nil
	})
	il := core.MustForall("fold", task, domain.Range1(0, 7), core.Requirement{
		Partition: part, Functor: projection.Constant(domain.Pt1(0)),
		Priv: privilege.Reduce, RedOp: privilege.OpSumF64, Fields: []region.FieldID{0},
	})
	if _, err := r.ExecuteIndex(il); err != nil {
		t.Fatal(err)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if got := region.MustFieldF64(tree.Root(), 0).Get(domain.Pt1(0)); got != 80 {
		t.Errorf("folded total %v, want 80 (8 committed tasks × 10)", got)
	}
	if n := len(r.folds.f64); n == 0 {
		t.Error("no reduction buffer came back to the pool")
	}
}
