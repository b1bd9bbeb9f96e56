//go:build !race

// Allocation gates. The race detector changes what allocates, so they run
// only without it.

package rt

import (
	"runtime"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/trace"
)

var eventSink *Event

// An event is one object: no channel until a goroutine blocks on it.
func TestNewEventAllocatesOneObject(t *testing.T) {
	for name, mk := range map[string]func() *Event{"NewEvent": NewEvent, "Completed": Completed} {
		if n := testing.AllocsPerRun(1000, func() { eventSink = mk() }); n != 1 {
			t.Errorf("%s allocates %v objects, want 1", name, n)
		}
	}
}

// TestRegionPointAllocsBounded gates the region point path: the physical
// stage of a point with one read-write requirement allocates at most its
// completion event and its run state — its dependences are a view of the
// issuer's scratch — and a warmed reduction instance folds and flushes
// without allocating.
func TestRegionPointAllocsBounded(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	task := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	const points = 64
	tree := region.MustNewTree("allocs", domain.Range1(0, points-1), fs)
	part, err := tree.PartitionEqual(tree.Root(), "blocks", points)
	if err != nil {
		t.Fatal(err)
	}
	il := core.MustForall("allocs", task, domain.Range1(0, points-1), core.Requirement{
		Partition: part, Functor: projection.Identity(1),
		Priv: privilege.ReadWrite, Fields: []region.FieldID{0},
	})
	var pts []domain.Point
	var regs [][]*region.Region
	_ = il.Each(func(pt core.PointTask) bool {
		pts, regs = append(pts, pt.Point), append(regs, pt.Regions)
		return true
	})

	r.issueMu.Lock()
	l, err := r.issue(il.Task, il.Tag, il.Domain, points)
	if err != nil {
		t.Fatal(err)
	}
	l.fm, l.reqs = newFutureMap(l.dom), launchReqs(il)
	j := 0
	physical := testing.AllocsPerRun(10*points, func() {
		r.physical(l, &taskRun{runHeader: l.runHeader, regions: regs[j%points]}, pts[j%points])
		j++
	})
	r.issueMu.Unlock()
	if physical > 2 {
		t.Errorf("physical allocates %v objects per one-requirement point, want <= 2", physical)
	}

	acc := region.MustFieldF64(tree.Root(), 0)
	red := &ReducerF64{acc: acc, id: privilege.OpSumF64, op: privilege.MustOp(privilege.OpSumF64)}
	ctx, views := &Context{rt: r}, []*ReducerF64{red}
	fold := testing.AllocsPerRun(100, func() {
		red.buf = truncFolds(red.buf)
		for i := range int64(points) {
			red.Fold(domain.Pt1(i), 1)
		}
		ctx.reducers = views
		ctx.flushReductions()
	})
	if fold != 0 {
		t.Errorf("a warmed fold + flush cycle allocates %v objects, want 0", fold)
	}
}

// TestRegionLaunchBytesPerPoint gates what a region point costs the garbage
// collector end to end — issue, analysis, parking, run queue, attempt and
// commit — on a warmed DCR launch of |D| = 256 points, each with a read, a
// read-write and a reduce requirement, through ExecuteIndex and FenceErr.
// Bytes set how often the collector runs; objects follow them.
func TestRegionLaunchBytesPerPoint(t *testing.T) {
	const (
		points     = 256
		rounds     = 40
		maxBytes   = 275 // measured: 252
		maxObjects = 3.5 // measured: 3.20
	)
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	task := r.MustRegisterTask("rwr", func(ctx *Context) ([]byte, error) {
		in, err := ctx.ReadF64(0, 0)
		if err != nil {
			return nil, err
		}
		out, err := ctx.WriteF64(1, 1)
		if err != nil {
			return nil, err
		}
		sum, err := ctx.ReduceF64(2, 2)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			out.Set(p, in.Get(p))
			sum.Fold(p, 1)
			return true
		})
		return nil, nil
	})
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "in", Kind: region.F64},
		region.Field{ID: 1, Name: "out", Kind: region.F64}, region.Field{ID: 2, Name: "sum", Kind: region.F64})
	tree := region.MustNewTree("bytes", domain.Range1(0, 4*points-1), fs)
	part, err := tree.PartitionEqual(tree.Root(), "blocks", points)
	if err != nil {
		t.Fatal(err)
	}
	req := func(priv privilege.Privilege, field region.FieldID) core.Requirement {
		rq := core.Requirement{Partition: part, Functor: projection.Identity(1), Priv: priv, Fields: []region.FieldID{field}}
		if priv == privilege.Reduce {
			rq.RedOp = privilege.OpSumF64
		}
		return rq
	}
	il := core.MustForall("bytes", task, domain.Range1(0, points-1),
		req(privilege.Read, 0), req(privilege.ReadWrite, 1), req(privilege.Reduce, 2))
	launch := func() {
		if _, err := r.ExecuteIndex(il); err != nil {
			t.Fatal(err)
		}
		if err := r.FenceErr(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 10 {
		launch()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		launch()
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * points)
	bytes, objects := float64(after.TotalAlloc-before.TotalAlloc)/n, float64(after.Mallocs-before.Mallocs)/n
	t.Logf("%.0f B and %.2f objects per point", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("a region point allocates %.0f B in %.2f objects, want <= %d B in <= %v", bytes, objects, maxBytes, maxObjects)
	}
}

// TestTracedLaunchAllocsFlat gates the traced launch: tracing a job of one
// index launch costs the same number of allocations over profiling it
// untraced at |D| = 64 as at |D| = 1024, because a traced launch's
// per-point spans travel as one record that the tracer keeps unexpanded.
func TestTracedLaunchAllocsFlat(t *testing.T) {
	extra := map[int]float64{}
	for _, points := range []int{64, 1024} {
		untraced, traced := launchJobAllocs(t, points, false), launchJobAllocs(t, points, true)
		extra[points] = traced - untraced
		t.Logf("|D| = %d: %v allocs profiled, %v traced", points, untraced, traced)
	}
	if extra[64] != extra[1024] {
		t.Errorf("tracing adds %v allocs per launch at |D| = 64 but %v at |D| = 1024", extra[64], extra[1024])
	}
}

// TestRegionFreeLaunchAllocsFlat gates the region-free launch: a DCR
// ExecuteIndex + FenceErr allocates per slice and per chunk, not per point,
// so |D| = 4096 stays within twice |D| = 64.
func TestRegionFreeLaunchAllocsFlat(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	task := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	allocs := map[int]float64{}
	for _, points := range []int{64, 4096} {
		il := core.MustForall("allocs", task, domain.Range1(0, int64(points-1)))
		allocs[points] = testing.AllocsPerRun(50, func() {
			if _, err := r.ExecuteIndex(il); err != nil {
				t.Fatal(err)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("|D| = %d: %v allocs", points, allocs[points])
	}
	if allocs[4096] > 2*allocs[64] {
		t.Errorf("a region-free launch allocates %v objects at |D| = 4096, more than twice the %v at |D| = 64",
			allocs[4096], allocs[64])
	}
}

// launchJobAllocs measures one job of one index launch of points points
// and a fence on a profiled runtime: traced (head-sampled, so retained)
// or not.
func launchJobAllocs(t *testing.T, points int, traced bool) float64 {
	rec := obs.NewRecorder("rt", 2, 1<<12)
	var tracer *trace.Tracer
	if traced {
		var err error
		if tracer, err = trace.New(trace.Config{HeadRate: 1}); err != nil {
			t.Fatal(err)
		}
		rec.SetSink(tracer.Sink())
	}
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true, Profile: rec})
	defer r.Shutdown()
	task := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
	il := core.MustForall("allocs", task, domain.Range1(0, int64(points-1)))
	job := uint64(0)
	return testing.AllocsPerRun(50, func() {
		job++
		root := obs.NewTraceRef(job)
		if traced {
			tracer.Begin(root, job, "t", 0)
			r.SetTraceRef(root.Child(1))
		}
		if _, err := r.ExecuteIndex(il); err != nil {
			t.Fatal(err)
		}
		r.Fence()
		if traced {
			tracer.Finish(root, rec.Now(), trace.Outcome{})
		}
	})
}
