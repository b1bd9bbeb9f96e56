package rt

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/trace"
)

// countingSink forwards to a tracer and counts the launch records it sees,
// so the identity test below knows the record path carried the spans.
type countingSink struct {
	*trace.Tracer
	launches atomic.Int64
}

func (s *countingSink) RecordLaunch(ls *obs.LaunchSpans) {
	s.launches.Add(1)
	s.Tracer.RecordLaunch(ls)
}

// pointKey is the per-point child index, written out independently of the
// code under test: identities derived on read must equal the ones the
// per-point path stamped.
func pointKey(p domain.Point) uint64 {
	h := uint64(0x706f696e74)
	for i := 0; i < p.Dim; i++ {
		h = obs.Mix64(h ^ uint64(p.C[i]))
	}
	if h < 16 {
		h += 16
	}
	return h
}

// spanKey is the identity of one span: everything but its timing and ID.
type spanKey struct {
	Trace, Span, Parent uint64
	Stage               obs.Stage
	Node                int32
	Task, Tag           string
	Point               domain.Point
}

func keyOf(ev obs.Event) spanKey {
	return spanKey{ev.Trace, ev.Span, ev.Parent, ev.Stage, ev.Node, ev.Task, ev.Tag, ev.Point}
}

func (k spanKey) String() string {
	return fmt.Sprintf("%s n%d %s/%s %v span=%x parent=%x", k.Stage, k.Node, k.Task, k.Tag, k.Point, k.Span, k.Parent)
}

// tracedLaunch describes one launch of the program below and what its
// points do, for the per-point formula.
type tracedLaunch struct {
	tag, task string
	points    int
	replayed  bool          // points skip physical analysis
	retried   map[int64]int // point → retry marks
	skipped   map[int64]bool
}

// TestTracedLaunchSpansMatchPerPointIdentities: a traced index launch's
// per-point spans travel as one record, and the identities derived when the
// retained trace is read must be exactly the per-point formula's — for
// region-free and region launches (whose dependence edges must join the
// execute-span IDs the record derives), replayed, retried and skipped
// points.
func TestTracedLaunchSpansMatchPerPointIdentities(t *testing.T) {
	const nodes, n = 2, 8
	tracer, err := trace.New(trace.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{Tracer: tracer}
	rec := obs.NewRecorder("rt", nodes, 1<<12)
	rec.SetSink(sink)
	r := MustNew(Config{
		Nodes: nodes, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Profile: rec, Retry: RetryPolicy{Max: 1},
	})
	defer r.Shutdown()
	assigned := func(points int, p domain.Point) int32 {
		return int32(BlockMapper{}.ShardPoint(domain.Range1(0, int64(points-1)), p, nodes))
	}

	var tries sync.Map // "tag/point" → *atomic.Int32
	attempt := func(ctx *Context, tag string) int32 {
		c, _ := tries.LoadOrStore(fmt.Sprintf("%s/%d", tag, ctx.Point.X()), new(atomic.Int32))
		return c.(*atomic.Int32).Add(1)
	}
	flaky := r.MustRegisterTask("flaky", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X()%3 == 0 && attempt(ctx, "rf") == 1 {
			return nil, errors.New("first attempt fails")
		}
		return nil, nil
	})
	noop := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	bad := r.MustRegisterTask("bad", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X() == 5 {
			return nil, errors.New("always fails")
		}
		return nil, nil
	})
	slow := r.MustRegisterTask("slow", func(ctx *Context) ([]byte, error) {
		if ctx.Point.X() == 3 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil, nil
	})

	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("spans", domain.Range1(0, n-1), fs)
	part, err := tree.PartitionEqual(tree.Root(), "pieces", n)
	if err != nil {
		t.Fatal(err)
	}
	dom := domain.Range1(0, n-1)
	over := func(tag string, task core.TaskID, priv privilege.Privilege) *core.IndexLaunch {
		return core.MustForall(tag, task, dom, core.Requirement{
			Partition: part, Functor: projection.Identity(1), Priv: priv, Fields: []region.FieldID{0},
		})
	}
	run := func(il *core.IndexLaunch) {
		t.Helper()
		if _, err := r.ExecuteIndex(il); err != nil {
			t.Fatal(err)
		}
	}

	root := obs.NewTraceRef(23)
	tracer.Begin(root, 1, "t", 0)
	r.SetTraceRef(root.Child(1))
	for i := 0; i < 2; i++ { // captured, then replayed
		if err := r.BeginTrace(1); err != nil {
			t.Fatal(err)
		}
		run(core.MustForall("loop", noop, dom))
		if err := r.EndTrace(1); err != nil {
			t.Fatal(err)
		}
	}
	run(core.MustForall("rf", flaky, dom))
	run(over("w", noop, privilege.ReadWrite))
	run(over("rd", noop, privilege.Read))
	run(over("wb", bad, privilege.ReadWrite))
	run(over("rd2", noop, privilege.Read))
	_ = r.FenceErr() // wb's point 5 failed; rd2's point 5 was skipped
	run(core.MustForall("sp", slow, domain.Range1(0, 3)))
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TraceReplays != 1 || st.TasksSkipped != 1 {
		t.Fatalf("program did not take the intended paths: %+v", st)
	}
	if retained, _ := tracer.Finish(root, rec.Now(), trace.Outcome{Failed: true}); !retained {
		t.Fatal("trace not retained")
	}
	got, ok := tracer.Get("1")
	if !ok {
		t.Fatal("trace not queryable")
	}
	if got.Truncated != 0 {
		t.Fatalf("trace truncated %d spans", got.Truncated)
	}

	launches := []tracedLaunch{
		{tag: "loop", task: "noop", points: n},
		{tag: "loop", task: "noop", points: n, replayed: true},
		{tag: "rf", task: "flaky", points: n, retried: map[int64]int{0: 1, 3: 1, 6: 1}},
		{tag: "w", task: "noop", points: n},
		{tag: "rd", task: "noop", points: n},
		{tag: "wb", task: "bad", points: n, retried: map[int64]int{5: 1}},
		{tag: "rd2", task: "noop", points: n, skipped: map[int64]bool{5: true}},
		{tag: "sp", task: "slow", points: 4},
	}
	if c := sink.launches.Load(); c != int64(len(launches)) {
		t.Fatalf("sink saw %d launch records, want %d", c, len(launches))
	}

	// The launch contexts, from the issue spans in issuance order.
	var issues []obs.Event
	for _, ev := range got.Spans {
		if ev.Stage == obs.StageIssue {
			issues = append(issues, ev)
		}
	}
	if len(issues) != len(launches) {
		t.Fatalf("%d issue spans, want %d", len(issues), len(launches))
	}
	var want []spanKey
	for i, l := range launches {
		is := issues[i]
		if is.Tag != l.tag {
			t.Fatalf("issue span %d is %q, want %q", i, is.Tag, l.tag)
		}
		ltc := obs.TraceRef{Trace: is.Trace, Span: is.Span, Parent: is.Parent}
		for x := int64(0); x < int64(l.points); x++ {
			p := domain.Pt1(x)
			ptc := ltc.Child(pointKey(p))
			node := assigned(l.points, p)
			span := func(tc obs.TraceRef, st obs.Stage, node int32) {
				want = append(want, spanKey{tc.Trace, tc.Span, tc.Parent, st, node, l.task, l.tag, p})
			}
			if !l.replayed {
				span(ptc, obs.StagePhysical, node)
			}
			for k := 1; k <= l.retried[x]; k++ {
				span(ptc.Child(uint64(tcRetryBase+k)), obs.StageRetry, node)
			}
			if l.skipped[x] {
				span(ptc.Child(tcFaultSkip), obs.StageFault, node)
			} else {
				span(ptc.Child(1), obs.StageExecute, node)
			}
		}
	}
	var have []spanKey
	execID := map[string]int64{} // "tag#i/point" → execute span ID
	seen := map[int64]int{}
	for _, ev := range got.Spans {
		switch ev.Stage {
		case obs.StagePhysical, obs.StageExecute, obs.StageRetry, obs.StageFault:
			have = append(have, keyOf(ev))
		}
		if ev.Stage == obs.StageExecute {
			if ev.ID == 0 {
				t.Errorf("execute span without an ID: %v", keyOf(ev))
			}
			execID[fmt.Sprintf("%s/%d/%x", ev.Tag, ev.Point.X(), ev.Parent)] = ev.ID
			seen[ev.ID]++
		}
	}
	for id, c := range seen {
		if c > 1 {
			t.Errorf("execute span ID %d appears %d times", id, c)
		}
	}
	sortKeys := func(ks []spanKey) {
		slices.SortFunc(ks, func(a, b spanKey) int { return strings.Compare(a.String(), b.String()) })
	}
	sortKeys(want)
	sortKeys(have)
	if !slices.Equal(want, have) {
		for _, k := range want {
			if !slices.Contains(have, k) {
				t.Errorf("missing %v", k)
			}
		}
		for _, k := range have {
			if !slices.Contains(want, k) {
				t.Errorf("unexpected %v", k)
			}
		}
		t.Fatalf("per-point spans differ from the formula: %d spans, want %d", len(have), len(want))
	}

	// Each region launch's point depends on the previous region launch's
	// same point: the recorded edge joins their execute-span IDs.
	idOf := func(li int, x int64) (int64, bool) {
		is := issues[li]
		ltc := obs.TraceRef{Trace: is.Trace, Span: is.Span, Parent: is.Parent}
		id, ok := execID[fmt.Sprintf("%s/%d/%x", launches[li].tag, x, ltc.Child(pointKey(domain.Pt1(x))).Span)]
		return id, ok
	}
	edges := map[obs.Edge]bool{}
	for _, e := range rec.Snapshot().Edges {
		edges[e] = true
	}
	for li := 4; li <= 6; li++ { // rd after w, wb after rd, rd2 after wb
		for x := int64(0); x < n; x++ {
			from, ok1 := idOf(li-1, x)
			to, ok2 := idOf(li, x)
			if !ok2 && launches[li].skipped[x] {
				continue
			}
			if !ok1 || !ok2 {
				t.Fatalf("no execute span for %s or %s point %d", launches[li-1].tag, launches[li].tag, x)
			}
			if !edges[obs.Edge{From: from, To: to}] {
				t.Errorf("no edge %s(%d) → %s(%d) for point %d", launches[li-1].tag, from, launches[li].tag, to, x)
			}
		}
	}
}
