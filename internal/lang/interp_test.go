package lang

import (
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
)

// interpSetup builds a runtime, two 30-element collections partitioned into
// 3 and 21-element/21-block collections, and an increment task that adds 1
// to every element of each region argument it may write.
func interpSetup(t *testing.T) (*Binding, *region.Tree, *region.Tree) {
	t.Helper()
	r := rt.MustNew(rt.Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	fs := func() *region.FieldSpace {
		return region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	}
	ptree := region.MustNewTree("p", domain.Range1(0, 29), fs())
	qtree := region.MustNewTree("q", domain.Range1(0, 20), fs())
	pp, err := ptree.PartitionEqual(ptree.Root(), "p", 10)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := qtree.PartitionEqual(qtree.Root(), "q", 21)
	if err != nil {
		t.Fatal(err)
	}

	inc := r.MustRegisterTask("inc", func(ctx *rt.Context) ([]byte, error) {
		for i := 0; i < ctx.NumRegions(); i++ {
			pr, _ := ctx.Region(i)
			if !pr.Priv.IsWrite() {
				continue
			}
			acc, err := ctx.WriteF64(i, 0)
			if err != nil {
				return nil, err
			}
			// Read-write arguments increment; write-only arguments (which
			// may not read) mark with 1.
			rdr, rdErr := ctx.ReadF64(i, 0)
			pr.Region.Domain.Each(func(pt domain.Point) bool {
				if rdErr == nil {
					acc.Set(pt, rdr.Get(pt)+1)
				} else {
					acc.Set(pt, 1)
				}
				return true
			})
		}
		return nil, nil
	})

	b := &Binding{
		RT:    r,
		Tasks: map[string]core.TaskID{"foo": inc, "bar": inc, "f": inc},
		Parts: map[string]*region.Partition{"p": pp, "q": qp},
	}
	return b, ptree, qtree
}

func TestExecListing1(t *testing.T) {
	b, ptree, qtree := interpSetup(t)
	plan, err := Compile(listing1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	// Loop 1 runs statically as an index launch; loop 2 passes its dynamic
	// check ((2i+1)%21 is injective over [0,10)) and also runs compactly.
	if stats.IndexLaunches != 2 {
		t.Errorf("index launches = %d, want 2", stats.IndexLaunches)
	}
	if stats.DynamicBranches != 1 {
		t.Errorf("dynamic branches = %d, want 1", stats.DynamicBranches)
	}
	if stats.TaskLoops != 0 {
		t.Errorf("task loops = %d, want 0", stats.TaskLoops)
	}
	if stats.CheckEvals == 0 {
		t.Error("dynamic check should have evaluated the functor")
	}
	// Every element of p touched exactly once.
	sum, _ := region.SumF64(ptree.Root(), 0)
	if sum != 30 {
		t.Errorf("sum(p) = %v, want 30", sum)
	}
	// bar touched 10 of q's 21 blocks, 1 element each.
	qsum, _ := region.SumF64(qtree.Root(), 0)
	if qsum != 10 {
		t.Errorf("sum(q) = %v, want 10", qsum)
	}
}

func TestExecListing2FallsBackToTaskLoop(t *testing.T) {
	b, _, qtree := interpSetup(t)
	src := `
task foo(c1, c2) where reads(c1), writes(c2) do end
for i = 0, 5 do
  foo(p[i], q[i % 3])
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TaskLoops != 1 || stats.IndexLaunches != 0 {
		t.Errorf("taskLoops=%d indexLaunches=%d, want 1/0", stats.TaskLoops, stats.IndexLaunches)
	}
	if stats.SingleTasks != 5 {
		t.Errorf("single tasks = %d, want 5", stats.SingleTasks)
	}
	// foo's second argument is write-only, so blocks 0..2 are marked 1.
	acc := region.MustFieldF64(qtree.Root(), 0)
	for i := int64(0); i < 3; i++ {
		if got := acc.Get(domain.Pt1(i)); got != 1 {
			t.Errorf("q[%d] = %v, want 1", i, got)
		}
	}
}

func TestExecDynamicCheckCatchesUnsafeAtRuntime(t *testing.T) {
	// (2*i) % 10 over [0,10): within one period, so the static modular
	// analysis says Unknown — but the dynamic check finds the collision
	// (i=0 and i=5 both map to 0). The compiled branch must take the
	// task-loop path and the result must still be correct.
	b, _, qtree := interpSetup(t)
	src := `
task bar(r) where reads(r), writes(r) do end
for i = 0, 10 do
  bar(q[(2*i) % 10])
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DynamicBranches != 1 || stats.TaskLoops != 1 || stats.IndexLaunches != 0 {
		t.Errorf("branches=%d taskLoops=%d indexLaunches=%d, want 1/1/0",
			stats.DynamicBranches, stats.TaskLoops, stats.IndexLaunches)
	}
	// Even blocks 0,2,4,6,8 are each hit twice.
	acc := region.MustFieldF64(qtree.Root(), 0)
	for i := int64(0); i < 10; i += 2 {
		if got := acc.Get(domain.Pt1(i)); got != 2 {
			t.Errorf("q[%d] = %v, want 2", i, got)
		}
	}
}

func TestExecControlLoopIterates(t *testing.T) {
	b, ptree, _ := interpSetup(t)
	src := `
task f(r) where reads(r), writes(r) do end
var steps = 3
for t = 0, steps do
  for i = 0, 10 do
    f(p[i])
  end
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexLaunches != 3 {
		t.Errorf("index launches = %d, want 3", stats.IndexLaunches)
	}
	sum, _ := region.SumF64(ptree.Root(), 0)
	if sum != 90 {
		t.Errorf("sum = %v, want 90", sum)
	}
}

func TestExecSingleLaunchOutsideLoop(t *testing.T) {
	b, ptree, _ := interpSetup(t)
	src := `
task f(r) where reads(r), writes(r) do end
f(p[4])`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SingleTasks != 1 {
		t.Errorf("single tasks = %d", stats.SingleTasks)
	}
	sum, _ := region.SumF64(ptree.Root(), 0)
	if sum != 3 { // block 4 holds elements 12..14
		t.Errorf("sum = %v, want 3", sum)
	}
}

func TestExecMultiLaunchLoopBody(t *testing.T) {
	// A candidate loop with two launch statements becomes two index
	// launches over the same domain, issued in order.
	b, ptree, qtree := interpSetup(t)
	src := `
task f(r) where reads(r), writes(r) do end
for i = 0, 10 do
  f(p[i])
  f(q[2*i])
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := plan.Ops[0].(*OpCandidateLoop)
	if !ok || len(loop.Launches) != 2 {
		t.Fatalf("candidate loop with %d launches", len(loop.Launches))
	}
	stats, err := Exec(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexLaunches != 2 {
		t.Errorf("index launches = %d, want 2", stats.IndexLaunches)
	}
	psum, _ := region.SumF64(ptree.Root(), 0)
	if psum != 30 {
		t.Errorf("sum(p) = %v, want 30", psum)
	}
	// q's even blocks 0..18 each bumped once (1 element per block).
	qsum, _ := region.SumF64(qtree.Root(), 0)
	if qsum != 10 {
		t.Errorf("sum(q) = %v, want 10", qsum)
	}
}

func TestExecBodyVarDeclInLoop(t *testing.T) {
	// A var declaration inside a candidate loop participates in functor
	// classification: j = i + 3 keeps the launch affine and static.
	b, ptree, _ := interpSetup(t)
	src := `
task f(r) where reads(r), writes(r) do end
for i = 0, 7 do
  var j = i + 3
  f(p[j])
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := plan.Ops[0].(*OpCandidateLoop)
	if d := loop.Launches[0].Decision; d != DecideIndexLaunch {
		t.Errorf("decision = %v (%s), want static", d, loop.Launches[0].Reason)
	}
	if _, err := Exec(plan, b); err != nil {
		t.Fatal(err)
	}
	// Blocks 3..9 bumped once: 7 blocks × 3 elements.
	sum, _ := region.SumF64(ptree.Root(), 0)
	if sum != 21 {
		t.Errorf("sum = %v, want 21", sum)
	}
}

func TestExecMissingBindings(t *testing.T) {
	b, _, _ := interpSetup(t)
	plan, err := Compile("task g(r) where reads(r) do end\nfor i = 0, 3 do g(p[i]) end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(plan, b); err == nil {
		t.Error("unbound task should error")
	}
	plan2, err := Compile("task f(r) where reads(r) do end\nfor i = 0, 3 do f(z[i]) end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(plan2, b); err == nil {
		t.Error("unbound partition should error")
	}
}

func TestExecTaskLoopIssuesThroughRuntimeLoop(t *testing.T) {
	// A statically rejected loop is one task loop in the runtime: counted
	// Expanded once, with no ExecuteSingle call of its own.
	b, _, _ := interpSetup(t)
	src := `
task foo(c1, c2) where reads(c1), writes(c2) do end
for i = 0, 5 do
  foo(p[i], q[i % 3])
end`
	plan, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	before := b.RT.Stats()
	if _, err := Exec(plan, b); err != nil {
		t.Fatal(err)
	}
	after := b.RT.Stats()
	if got := after.Expanded - before.Expanded; got != 1 {
		t.Errorf("expanded += %d, want 1", got)
	}
	if got := after.SingleCalls - before.SingleCalls; got != 0 {
		t.Errorf("single calls += %d, want 0", got)
	}
	if got := after.TasksExecuted - before.TasksExecuted; got != 5 {
		t.Errorf("tasks executed += %d, want 5", got)
	}
}
