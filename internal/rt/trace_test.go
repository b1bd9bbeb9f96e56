package rt

import (
	"fmt"
	"strings"
	"testing"
	"time"

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

// A replay enters the version map as one access by its terminal event, so
// it orders as any access does: a replayed read waits for the last writer
// of its data but not for readers issued before the episode, while a
// replayed write waits for those readers.
func TestTraceReplayBoundaryOrdersLikeAccess(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			// Eight processors per node, so the held readers leave room
			// for the replays' points.
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 8, DCR: dcr, IndexLaunches: true})
			defer r.Shutdown()
			tree, p := lineSetup(t, 40, 4)
			read := r.MustRegisterTask("read", func(*Context) ([]byte, error) { return nil, nil })
			inc := r.MustRegisterTask("inc", incrementTask)
			hold := make(chan struct{})
			held := r.MustRegisterTask("held", func(*Context) ([]byte, error) { <-hold; return nil, nil })
			over := func(task core.TaskID, priv privilege.Privilege) *core.IndexLaunch {
				return core.MustForall("l", task, domain.Range1(0, 3), core.Requirement{
					Partition: p, Functor: projection.Identity(1),
					Priv: priv, Fields: []region.FieldID{fieldVal},
				})
			}
			episode := func(id uint64, il *core.IndexLaunch) *FutureMap {
				t.Helper()
				if err := r.BeginTrace(id); err != nil {
					t.Fatal(err)
				}
				fm, err := r.ExecuteIndex(il)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.EndTrace(id); err != nil {
					t.Fatal(err)
				}
				return fm
			}
			episode(1, over(read, privilege.Read))
			episode(2, over(inc, privilege.ReadWrite))
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			reader, err := r.ExecuteIndex(over(held, privilege.Read))
			if err != nil {
				t.Fatal(err)
			}
			released := false
			release := func() {
				if !released {
					released = true
					close(hold)
				}
			}
			defer release()
			if err := episode(1, over(read, privilege.Read)).WaitTimeout(time.Second); err != nil {
				t.Fatalf("replayed read waited for an earlier reader: %v", err)
			}
			writer := episode(2, over(inc, privilege.ReadWrite))
			time.Sleep(20 * time.Millisecond)
			if writer.Event().Done() {
				t.Fatal("replayed write finished before an earlier reader of its data")
			}
			if reader.Event().Done() {
				t.Fatal("the held reader finished before its release")
			}
			release()
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if sum, _ := region.SumF64(tree.Root(), fieldVal); sum != 2*40 {
				t.Errorf("sum = %v, want 80", sum)
			}
		})
	}
}

// TestTraceReplayParksEachPointOnce holds a replay's start unfired behind
// a pre-episode writer and looks where the replayed points wait: the two
// chain roots' on the start, the launch that depends on both on one merge
// of their completions, each point on one event.
func TestTraceReplayParksEachPointOnce(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 8, DCR: dcr, IndexLaunches: true})
			defer r.Shutdown()
			tree, p := lineSetup(t, 40, 4)
			read := r.MustRegisterTask("read", func(*Context) ([]byte, error) { return nil, nil })
			inc := r.MustRegisterTask("inc", incrementTask)
			hold := make(chan struct{})
			held := r.MustRegisterTask("held", func(*Context) ([]byte, error) { <-hold; return nil, nil })
			over := func(task core.TaskID, priv privilege.Privilege) *core.IndexLaunch {
				return core.MustForall("l", task, domain.Range1(0, 3), core.Requirement{
					Partition: p, Functor: projection.Identity(1),
					Priv: priv, Fields: []region.FieldID{fieldVal},
				})
			}
			// Two reads, then a write that depends on both.
			episode := func() (last *FutureMap) {
				t.Helper()
				if err := r.BeginTrace(1); err != nil {
					t.Fatal(err)
				}
				for _, il := range []*core.IndexLaunch{over(read, privilege.Read), over(read, privilege.Read), over(inc, privilege.ReadWrite)} {
					fm, err := r.ExecuteIndex(il)
					if err != nil {
						t.Fatal(err)
					}
					last = fm
				}
				return last
			}
			episode()
			if err := r.EndTrace(1); err != nil {
				t.Fatal(err)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ExecuteIndex(over(held, privilege.ReadWrite)); err != nil {
				t.Fatal(err)
			}
			released := false
			release := func() {
				if !released {
					released = true
					close(hold)
				}
			}
			defer release()
			last := episode()

			ep := r.ep
			if ep.start.Done() {
				t.Fatal("the replay's start fired before the held writer")
			}
			// parked returns the replayed points and the gates waiting on e.
			parked := func(e *Event) (points, gates []*taskRun) {
				e.mu.Lock()
				defer e.mu.Unlock()
				for _, tr := range e.then {
					switch {
					case tr.gate != nil:
						gates = append(gates, tr)
					case tr.name == "read" || tr.name == "inc":
						points = append(points, tr)
					}
				}
				return points, gates
			}
			roots, _ := parked(ep.start)
			seen := map[*taskRun]bool{}
			for _, tr := range roots {
				if tr.name != "read" || seen[tr] || tr.left.Load() != 1 {
					t.Errorf("start holds a %s point twice, or one with %d unfired preconditions", tr.name, tr.left.Load())
				}
				seen[tr] = true
			}
			if len(seen) != 8 {
				t.Errorf("start holds %d distinct points, want the 8 of the two reads", len(seen))
			}
			var merge *taskRun
			for j, d := range ep.done[:2] {
				points, gates := parked(d)
				if len(points) != 0 || len(gates) != 1 || merge != nil && gates[0] != merge {
					t.Fatalf("read %d's completion holds %d points and %d gates, want only the write's merge", j, len(points), len(gates))
				}
				merge = gates[0]
			}
			if last.Event().Done() {
				t.Fatal("the replayed write finished before its reads")
			}

			release()
			if err := r.EndTrace(1); err != nil {
				t.Fatal(err)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if sum, _ := region.SumF64(tree.Root(), fieldVal); sum != 2*40 {
				t.Errorf("sum = %v, want 80", sum)
			}
		})
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
			replayDiverges(t, func(il *core.IndexLaunch, other core.TaskID, _ *region.Tree) {
				if c.other {
					il.Task = other
				}
				il.Domain = c.dom
			})
		})
	}
	// The same task over the same points, through other data: the replay
	// would order neither against the blocks it really touches.
	for _, c := range []struct {
		name string
		edit func(req *core.Requirement, tree *region.Tree) error
	}{
		{"other functor", func(req *core.Requirement, _ *region.Tree) error {
			req.Functor = projection.Modular1D(1, 4, 8) // blocks 4–7
			return nil
		}},
		{"other partition", func(req *core.Requirement, tree *region.Tree) (err error) {
			req.Partition, err = tree.PartitionEqual(tree.Root(), "quarters", 4)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			replayDiverges(t, func(il *core.IndexLaunch, _ core.TaskID, tree *region.Tree) {
				if err := c.edit(&il.Requirements[0], tree); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// replayDiverges captures inc over blocks 0–3 of an 8-block line in trace
// 3, then replays the launch edit makes of it, which must panic.
func replayDiverges(t *testing.T, edit func(il *core.IndexLaunch, other core.TaskID, tree *region.Tree)) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	tree, p := lineSetup(t, 80, 8)
	inc := r.MustRegisterTask("inc", incrementTask)
	other := r.MustRegisterTask("other", func(*Context) ([]byte, error) { return nil, nil })
	launch := func() *core.IndexLaunch {
		return core.MustForall("l", inc, domain.Range1(0, 3), core.Requirement{
			Partition: p, Functor: projection.Identity(1),
			Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
		})
	}
	if err := r.BeginTrace(3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExecuteIndex(launch()); err != nil {
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
	il := launch()
	edit(il, other, tree)
	_, _ = r.ExecuteIndex(il)
}

// A launch VerifyLaunches demotes is a task loop in every episode, captured
// and replayed as one unit per point; the replays keep the sequential
// model's order where its points conflict.
func TestTraceDemotedLaunchReplays(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 4, DCR: dcr, IndexLaunches: true, VerifyLaunches: true})
			defer r.Shutdown()
			tree, p := lineSetup(t, 30, 3)
			// Listing 2: points i and i+3 both write block i.
			il := core.MustForall("step", r.MustRegisterTask("step", stepTask), domain.Range1(0, 5), core.Requirement{
				Partition: p, Functor: projection.Modular1D(1, 0, 3),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
			want := make([]float64, 30)
			for i := 0; i < 3; i++ {
				if err := r.BeginTrace(1); err != nil {
					t.Fatal(err)
				}
				if _, err := r.ExecuteIndex(il); err != nil {
					t.Fatal(err)
				}
				if err := r.EndTrace(1); err != nil {
					t.Fatal(err)
				}
				stepModel(want, il)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			wantValues(t, tree, want)
			st := r.Stats()
			if st.TraceCaptures != 1 || st.TraceReplays != 2 || st.Fallbacks != 3 || st.Expanded != 3 {
				t.Errorf("captures=%d replays=%d fallbacks=%d expanded=%d, want 1/2/3/3",
					st.TraceCaptures, st.TraceReplays, st.Fallbacks, st.Expanded)
			}
			if st.AnalysisSkipped != 12 {
				t.Errorf("analysis skipped = %d, want 12: both replays' points", st.AnalysisSkipped)
			}
		})
	}
}

// An unsafe launch kept compact (VerifyLaunches off) has points that depend
// on each other, which a launch-granular template cannot replay: every
// EndTrace fails naming the task and the trace and stores nothing, so each
// episode captures again and runs in the sequential model's order.
func TestTraceUnsafeCompactLaunchFailsCapture(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 4, DCR: dcr, IndexLaunches: true})
			defer r.Shutdown()
			tree, p := lineSetup(t, 30, 3)
			il := core.MustForall("step", r.MustRegisterTask("step", stepTask), domain.Range1(0, 5), core.Requirement{
				Partition: p, Functor: projection.Modular1D(1, 0, 3),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
			want := make([]float64, 30)
			for i := 0; i < 3; i++ {
				if err := r.BeginTrace(1); err != nil {
					t.Fatal(err)
				}
				if _, err := r.ExecuteIndex(il); err != nil {
					t.Fatal(err)
				}
				err := r.EndTrace(1)
				if err == nil || !strings.Contains(err.Error(), `task "step"`) || !strings.Contains(err.Error(), "trace 1 ") {
					t.Fatalf("episode %d: EndTrace = %v, want an error naming task \"step\" and trace 1", i, err)
				}
				stepModel(want, il)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			wantValues(t, tree, want)
			if st := r.Stats(); st.TraceCaptures != 0 || st.TraceReplays != 0 || st.IndexLaunched != 3 {
				t.Errorf("captures=%d replays=%d indexLaunched=%d, want 0/0/3", st.TraceCaptures, st.TraceReplays, st.IndexLaunched)
			}
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
