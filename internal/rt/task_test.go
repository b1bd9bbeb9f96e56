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

// A drainer's Context keeps each reduction view's fold buffer across
// attempts: reset drops one that grew past maxFolds and empties a small one,
// which the next attempt's view then fills again in place.
func TestReductionViewKeepsOnlyReusableBuffers(t *testing.T) {
	r := MustNew(Config{Nodes: 1, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	tree, _ := lineSetup(t, 8, 1)
	h := &runHeader{reqs: []PhysicalRegion{{Priv: privilege.Reduce, RedOp: privilege.OpSumF64, Fields: []region.FieldID{fieldVal}}}}
	regions := []*region.Region{tree.Root()}
	ctx := &Context{rt: r}
	open := func(folds int) *ReducerF64 {
		ctx.reset(domain.Pt1(0), 0, h, regions, nil)
		red, err := ctx.ReduceF64(0, fieldVal)
		if err != nil {
			t.Fatal(err)
		}
		if len(red.buf) != 0 {
			t.Fatalf("a reset view holds %d folds", len(red.buf))
		}
		for i := range folds {
			red.Fold(domain.Pt1(int64(i%8)), 1)
		}
		return red
	}
	big := open(maxFolds + 1)
	small := open(3)
	if small != big {
		t.Fatal("reset did not reuse the Context's view")
	}
	if cap(small.buf) > maxFolds {
		t.Fatalf("the view kept a buffer of cap %d past reset, want one of at most %d", cap(small.buf), maxFolds)
	}
	kept := &ctx.reducers[0].buf[0]
	if again := open(3); &again.buf[0] != kept {
		t.Fatal("a small buffer was not reused in place")
	}
}

// A reduction view keeps its buffer on the drainer's Context: the next
// attempt on that Context opens its view on the emptied buffer, a failed
// attempt's folds are dropped with the reset, and the folds that land are
// exactly the committed ones.
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
	reused, dirty := 0, 0
	task := r.MustRegisterTask("fold", func(ctx *Context) ([]byte, error) {
		red, err := ctx.ReduceF64(0, 0)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		if cap(red.buf) > 0 {
			reused++
		}
		if len(red.buf) > 0 {
			dirty++
		}
		mu.Unlock()
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
	if reused == 0 || dirty > 0 {
		t.Errorf("%d views opened on a kept buffer and %d on one still holding folds, want > 0 and 0", reused, dirty)
	}
}
