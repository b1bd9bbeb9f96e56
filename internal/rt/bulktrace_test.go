package rt

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

func bulkRuntime(t *testing.T) (*Runtime, *region.Tree, *core.IndexLaunch) {
	t.Helper()
	r := MustNew(Config{
		Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
	})
	tree, p := lineSetup(t, 40, 4)
	inc := r.MustRegisterTask("inc", incrementTask)
	launch := core.MustForall("inc", inc, domain.Range1(0, 3), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	return r, tree, launch
}

func TestBulkTraceCaptureThenReplay(t *testing.T) {
	r, tree, launch := bulkRuntime(t)
	const iters = 5
	for i := 0; i < iters; i++ {
		if err := r.BeginTrace(1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(1); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 40*iters {
		t.Errorf("sum = %v, want %d", sum, 40*iters)
	}
	st := r.Stats()
	if st.TraceCaptures != 1 || st.TraceReplays != iters-1 {
		t.Errorf("captures=%d replays=%d", st.TraceCaptures, st.TraceReplays)
	}
	if st.AnalysisSkipped != int64(4*(iters-1)) {
		t.Errorf("analysis skipped = %d, want %d", st.AnalysisSkipped, 4*(iters-1))
	}
}

func TestBulkTraceMultiLaunchBody(t *testing.T) {
	// A two-launch body with a cross-launch dependency (producer-consumer)
	// must replay correctly: the consumer launch is wired to the merged
	// completion of the producer launch.
	r := MustNew(Config{
		Nodes: 2, ProcsPerNode: 4, DCR: true, IndexLaunches: true,
	})
	src, srcPart := lineSetup(t, 40, 4)
	dst, dstPart := lineSetup(t, 40, 4)
	_ = src

	produce := r.MustRegisterTask("produce", func(ctx *Context) ([]byte, error) {
		acc, err := ctx.WriteF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		in, err := ctx.ReadF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			acc.Set(p, in.Get(p)+1)
			return true
		})
		return nil, nil
	})
	consume := r.MustRegisterTask("consume", func(ctx *Context) ([]byte, error) {
		in, err := ctx.ReadF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		out, err := ctx.WriteF64(1, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			out.Set(p, in.Get(p)*10)
			return true
		})
		return nil, nil
	})

	d := domain.Range1(0, 3)
	lp := core.MustForall("produce", produce, d, core.Requirement{
		Partition: srcPart, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	lc := core.MustForall("consume", consume, d,
		core.Requirement{Partition: srcPart, Functor: projection.Identity(1),
			Priv: privilege.Read, Fields: []region.FieldID{fieldVal}},
		core.Requirement{Partition: dstPart, Functor: projection.Identity(1),
			Priv: privilege.Write, Fields: []region.FieldID{fieldVal}},
	)

	const iters = 4
	for i := 0; i < iters; i++ {
		if err := r.BeginTrace(2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteIndex(lp); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteIndex(lc); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(2); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	// After iteration k, src holds k and dst holds 10k everywhere.
	sum, _ := region.SumF64(dst.Root(), fieldVal)
	if sum != 40*10*iters {
		t.Errorf("dst sum = %v, want %d", sum, 40*10*iters)
	}
}

func TestBulkTraceOrdersAgainstOutsideWork(t *testing.T) {
	r, tree, launch := bulkRuntime(t)
	for i := 0; i < 2; i++ {
		if err := r.BeginTrace(3); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(3); err != nil {
			t.Fatal(err)
		}
		// Un-traced work between episodes.
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 40*4 {
		t.Errorf("sum = %v, want 160", sum)
	}
}

func TestBulkTraceDivergencePanics(t *testing.T) {
	r, _, launch := bulkRuntime(t)
	if err := r.BeginTrace(4); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(4); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginTrace(4); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("divergent bulk replay should panic")
		}
	}()
	// Different parallelism than captured.
	_, p := lineSetup(t, 40, 4)
	smaller := core.MustForall("inc", launch.Task, domain.Range1(0, 1), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	_, _ = r.ExecuteIndex(smaller)
}

func TestBulkTraceIncompleteReplayErrors(t *testing.T) {
	r, _, launch := bulkRuntime(t)
	if err := r.BeginTrace(5); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(5); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginTrace(5); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(5); err == nil {
		t.Error("incomplete bulk replay should error")
	}
	r.Fence()
}

func TestBulkTraceWithSingles(t *testing.T) {
	r := MustNew(Config{
		Nodes: 1, ProcsPerNode: 1, DCR: true, IndexLaunches: true,
	})
	tree, _ := lineSetup(t, 10, 1)
	inc := r.MustRegisterTask("inc1", incrementTask)
	req := []SingleReq{{Region: tree.Root(), Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}}}
	for i := 0; i < 3; i++ {
		if err := r.BeginTrace(6); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteSingle("inc1", inc, req, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(6); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 30 {
		t.Errorf("sum = %v, want 30", sum)
	}
}
