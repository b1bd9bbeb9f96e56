package rt

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

func traceRuntime(t *testing.T) (*Runtime, *region.Tree, *core.IndexLaunch) {
	t.Helper()
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	tree, p := lineSetup(t, 40, 4)
	inc := r.MustRegisterTask("inc", incrementTask)
	launch := core.MustForall("inc", inc, domain.Range1(0, 3), core.Requirement{
		Partition: p, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
	})
	return r, tree, launch
}

func TestTraceCaptureThenReplay(t *testing.T) {
	r, tree, launch := traceRuntime(t)
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
	if st.TraceCaptures != 1 {
		t.Errorf("captures = %d, want 1", st.TraceCaptures)
	}
	if st.TraceReplays != iters-1 {
		t.Errorf("replays = %d, want %d", st.TraceReplays, iters-1)
	}
	// Replays skip version-map analysis: 4 point tasks per replayed
	// iteration.
	if st.AnalysisSkipped != int64(4*(iters-1)) {
		t.Errorf("analysis skipped = %d, want %d", st.AnalysisSkipped, 4*(iters-1))
	}
}

func TestTraceReplayOrdersAgainstOutsideWork(t *testing.T) {
	// Write through an un-traced launch between two trace episodes; the
	// replay must order after it (external boundary), and un-traced work
	// after the replay must order after the replay (bulk update).
	r, tree, launch := traceRuntime(t)

	// Capture.
	if err := r.BeginTrace(7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(7); err != nil {
		t.Fatal(err)
	}

	// Un-traced interleaving write.
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}

	// Replay, then another un-traced round.
	if err := r.BeginTrace(7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}

	r.Fence()
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 160 { // 4 increments of 40 elements
		t.Errorf("sum = %v, want 160", sum)
	}
}

func TestTraceErrors(t *testing.T) {
	r, _, launch := traceRuntime(t)
	if err := r.EndTrace(1); err == nil {
		t.Error("EndTrace without BeginTrace should error")
	}
	if err := r.BeginTrace(1); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginTrace(2); err == nil {
		t.Error("nested BeginTrace should error")
	}
	if _, err := r.ExecuteIndex(launch); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(1); err != nil {
		t.Fatal(err)
	}
	// Replay issuing fewer ops than captured must error at EndTrace.
	if err := r.BeginTrace(1); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(1); err == nil {
		t.Error("incomplete replay should error")
	}
	r.Fence()
}

// A replay must issue the launches the capture saw: another task diverges,
// and so does the same task over other points, however many.
func TestTraceReplayDivergencePanics(t *testing.T) {
	for _, c := range []struct {
		name  string
		other bool          // replay another task
		dom   domain.Domain // over these points
	}{
		{"other task", true, domain.Range1(0, 3)},
		{"other points", false, domain.Range1(4, 7)},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
			_, p := lineSetup(t, 80, 8)
			inc := r.MustRegisterTask("inc", incrementTask)
			other := r.MustRegisterTask("other", func(*Context) ([]byte, error) { return nil, nil })
			launch := func(task core.TaskID, d domain.Domain) *core.IndexLaunch {
				return core.MustForall("l", task, d, core.Requirement{
					Partition: p, Functor: projection.Identity(1),
					Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
				})
			}
			if err := r.BeginTrace(3); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExecuteIndex(launch(inc, domain.Range1(0, 3))); err != nil {
				t.Fatal(err)
			}
			if err := r.EndTrace(3); err != nil {
				t.Fatal(err)
			}
			if err := r.BeginTrace(3); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("divergent replay should panic")
				}
			}()
			task := inc
			if c.other {
				task = other
			}
			_, _ = r.ExecuteIndex(launch(task, c.dom))
		})
	}
}

func TestTraceWithSingleTasks(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	tree, _ := lineSetup(t, 10, 1)
	inc := r.MustRegisterTask("inc1", func(ctx *Context) ([]byte, error) {
		acc, err := ctx.WriteF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			acc.Set(p, acc.Get(p)+1)
			return true
		})
		return nil, nil
	})
	req := []SingleReq{{Region: tree.Root(), Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}}}
	for i := 0; i < 3; i++ {
		if err := r.BeginTrace(9); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteSingle("inc1", inc, req, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteSingle("inc1", inc, req, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(9); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 60 { // 6 increments of 10 elements
		t.Errorf("sum = %v, want 60", sum)
	}
}
