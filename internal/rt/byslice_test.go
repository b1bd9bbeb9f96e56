package rt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/trace"
)

// countingMapper is BlockMapper counting its sharding functor's calls and
// its inverse's.
type countingMapper struct {
	BlockMapper
	shards, ranges atomic.Int64
}

func (m *countingMapper) ShardPoint(d domain.Domain, p domain.Point, nodes int) int {
	m.shards.Add(1)
	return m.BlockMapper.ShardPoint(d, p, nodes)
}

func (m *countingMapper) ShardRange(d domain.Domain, node, nodes int) (int64, int64, bool) {
	m.ranges.Add(1)
	return m.BlockMapper.ShardRange(d, node, nodes)
}

// opaqueMapper shows only its mapper's Mapper methods, hiding an inverse.
type opaqueMapper struct{ Mapper }

// filesBySlice reports whether issuance would file il by slice on r now.
func filesBySlice(r *Runtime, il *core.IndexLaunch) bool {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	l := &launch{dom: il.Domain, sliced: !r.cfg.DCR, ship: make(shipment, r.cfg.Nodes)}
	if l.sliced {
		l.slices = r.mapper.Slice(l.dom, r.cfg.Nodes)
	}
	return r.fileBySlice(l)
}

// inEpisodes issues a launch over d inside a capture, then inside a replay
// of the same trace, and checks both launches' squares.
func inEpisodes(t *testing.T, r *Runtime, d domain.Domain, issue func() *FutureMap) {
	t.Helper()
	for range 2 {
		if err := r.BeginTrace(1); err != nil {
			t.Fatal(err)
		}
		fm := issue()
		if err := r.EndTrace(1); err != nil {
			t.Fatal(err)
		}
		wantSquares(t, fm, d)
	}
	if st := r.Stats(); st.TraceCaptures != 1 || st.TraceReplays != 1 {
		t.Errorf("captures=%d replays=%d, want 1 and 1", st.TraceCaptures, st.TraceReplays)
	}
}

// Node 0 never enumerates a region-free launch to place it, inside a trace
// episode or not. Under DCR the sharding functor is not called once — its
// inverse names each node's points, once per node. In cluster mode every
// node's run is one block of the launch, matching its slice, with no
// per-point slot list.
func TestRegionFreeIssueNeverEnumerates(t *testing.T) {
	d := domain.Range1(0, 49)
	t.Run("dcr", func(t *testing.T) {
		m := &countingMapper{}
		r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, Mapper: m})
		defer r.Shutdown()
		il := &core.IndexLaunch{Task: registerSquare(r), Tag: "sq", Domain: d}
		issue := func() *FutureMap {
			fm, err := r.ExecuteIndex(il)
			if err != nil {
				t.Fatal(err)
			}
			return fm
		}
		wantSquares(t, issue(), d)
		inEpisodes(t, r, d, issue)
		if got := m.shards.Load(); got != 0 {
			t.Errorf("the sharding functor ran %d times, want 0", got)
		}
		if got := m.ranges.Load(); got != 3*4 {
			t.Errorf("the inverse ran %d times, want once per node and launch (12)", got)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		const nodes = 3
		tc := newTestCluster(t, nodes, squareBody, nil)
		m := &countingMapper{}
		r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0], Mapper: m})
		defer r.Shutdown()
		il := &core.IndexLaunch{Task: registerSquare(r), Tag: "sq", Domain: d}
		// ExecuteIndex's stages by hand, to look at the runs before they start.
		issue := func() *FutureMap {
			r.issueMu.Lock()
			defer r.issueMu.Unlock()
			l, err := r.issue(il.Task, il.Tag, il.Domain, int(il.Parallelism()))
			if err != nil {
				t.Fatal(err)
			}
			l.fm = newFutureMap(l.dom)
			l.done = l.fm.done
			r.distribute(l, true, true)
			r.file(l)
			for node, s := range l.ship {
				lo, hi := domain.Block(d.Volume(), node, nodes)
				switch {
				case s == nil:
					t.Errorf("node %d got no run", node)
				case s.slots != nil:
					t.Errorf("node %d's run was filed point by point", node)
				case int64(s.lo) != lo || int64(s.n) != hi-lo || s.index != node:
					t.Errorf("node %d's run holds slots %d+%d of slice %d, want the block [%d, %d) of slice %d",
						node, s.lo, s.n, s.index, lo, hi, node)
				}
			}
			r.launchDone(l)
			return l.fm
		}
		wantSquares(t, issue(), d)
		inEpisodes(t, r, d, issue)
		if err := r.FenceErr(); err != nil {
			t.Fatal(err)
		}
		if got := tc.executed[1].Load() + tc.executed[2].Load(); got != 3*33 {
			t.Errorf("workers executed %d points, want 33 per launch (99)", got)
		}
		if got := m.shards.Load(); got != 0 {
			t.Errorf("the sharding functor ran %d times, want 0", got)
		}
	})
}

// A launch that needs a per-point decision is filed point by point — its
// mapper cannot name a node's points (or slices them cyclically), a Fault
// plan is attached, or a node is dead — and gives the same values and the
// same span tree as the by-slice filing, on both paths.
func TestPerPointFilingMatchesBySlice(t *testing.T) {
	d := domain.Range1(0, 49)
	run := func(t *testing.T, dcr bool, mapper Mapper, fault *FaultInjector, kill bool) (shape string, bySlice bool) {
		rec := obs.NewRecorder("rt", 4, 1<<12)
		tracer, err := trace.New(trace.Config{HeadRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec.SetSink(tracer.Sink())
		r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true,
			Mapper: mapper, Fault: fault, Profile: rec})
		defer r.Shutdown()
		if kill && !r.KillNode(2) {
			t.Fatal("KillNode(2) refused")
		}
		root := obs.NewTraceRef(3)
		tracer.Begin(root, 1, "t", 0)
		r.SetTraceRef(root.Child(1))
		il := &core.IndexLaunch{Task: registerSquare(r), Tag: "sq", Domain: d}
		fm, err := r.ExecuteIndex(il)
		if err != nil {
			t.Fatal(err)
		}
		wantSquares(t, fm, d)
		if err := r.FenceErr(); err != nil {
			t.Fatal(err)
		}
		if retained, _ := tracer.Finish(root, rec.Now(), trace.Outcome{}); !retained {
			t.Fatal("trace not retained")
		}
		got, ok := tracer.Get("1")
		if !ok {
			t.Fatal("trace not queryable")
		}
		// A dead node's slice never enters the transport, however the
		// launch is filed: compare the trees without transport hops.
		var spans []obs.Event
		for _, ev := range got.Spans {
			if ev.Stage != obs.StageSend && ev.Stage != obs.StageRecv && ev.Stage != obs.StageRetransmit {
				spans = append(spans, ev)
			}
		}
		return trace.Shape(spans), filesBySlice(r, il)
	}
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			want, bySlice := run(t, dcr, BlockMapper{}, nil, false)
			if !bySlice {
				t.Fatal("the default mapper's launch is not filed by slice")
			}
			var noInverse Mapper = opaqueMapper{BlockMapper{}}
			if !dcr {
				noInverse = CyclicMapper{}
			}
			for _, c := range []struct {
				name   string
				mapper Mapper
				fault  *FaultInjector
				kill   bool
			}{
				{"no inverse", noInverse, nil, false},
				{"fault plan", BlockMapper{}, NewFaultInjector(1).KillNode(3, 1<<40), false},
				{"killed node", BlockMapper{}, nil, true},
			} {
				got, bySlice := run(t, dcr, c.mapper, c.fault, c.kill)
				if bySlice {
					t.Errorf("%s: filed by slice, want point by point", c.name)
				}
				if got != want {
					t.Errorf("%s: span tree\n  %s\nwant the by-slice tree\n  %s", c.name, got, want)
				}
			}
		})
	}
}
