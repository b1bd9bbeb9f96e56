package rt

import (
	"fmt"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/wire"
)

// stepTask doubles every element of its read-write region argument and adds
// its point's rank + 1: the order conflicting points ran in shows in the
// values.
func stepTask(ctx *Context) ([]byte, error) {
	acc, err := ctx.WriteF64(0, fieldVal)
	if err != nil {
		return nil, err
	}
	pr, _ := ctx.Region(0)
	pr.Region.Domain.Each(func(p domain.Point) bool {
		acc.Set(p, 2*acc.Get(p)+float64(ctx.Point.X()+1))
		return true
	})
	return nil, nil
}

// stepModel applies stepTask's points in domain order — the sequential
// model — to want, each point to the region its requirement selects.
func stepModel(want []float64, il *core.IndexLaunch) {
	_ = il.Each(func(pt core.PointTask) bool {
		pt.Regions[0].Domain.Each(func(p domain.Point) bool {
			want[p.X()] = 2*want[p.X()] + float64(pt.Point.X()+1)
			return true
		})
		return true
	})
}

func wantValues(t *testing.T, tree *region.Tree, want []float64) {
	t.Helper()
	acc := region.MustFieldF64(tree.Root(), fieldVal)
	for x, w := range want {
		if got := acc.Get(domain.Pt1(int64(x))); got != w {
			t.Fatalf("element %d = %v, want %v", x, got, w)
		}
	}
}

// An aliased-partition write launch fails VerifyLaunches' check and is
// issued as a task loop: one single launch — one issue span — per point,
// serialized where the windows overlap, as the sequential model orders them.
func TestDemotedLaunchIssuesPerPoint(t *testing.T) {
	for _, dcr := range []bool{true, false} {
		t.Run(fmt.Sprintf("dcr=%v", dcr), func(t *testing.T) {
			const n, size = 4, 40
			rec := obs.NewRecorder("rt", 2, 2)
			r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true, VerifyLaunches: true, Profile: rec})
			defer r.Shutdown()
			fs := region.MustFieldSpace(region.Field{ID: fieldVal, Name: "v", Kind: region.F64})
			tree := region.MustNewTree("line", domain.Range1(0, size-1), fs)
			// Window c holds elements 10c..10c+14: each overlaps the next.
			windows := region.Coloring{}
			for c := int64(0); c < n; c++ {
				windows[domain.Pt1(c)] = domain.Range1(10*c, min(10*c+14, size-1))
			}
			part, err := tree.PartitionByColoring(tree.Root(), "windows", domain.Range1(0, n-1), windows)
			if err != nil {
				t.Fatal(err)
			}
			il := core.MustForall("step", r.MustRegisterTask("step", stepTask), domain.Range1(0, n-1), core.Requirement{
				Partition: part, Functor: projection.Identity(1),
				Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal},
			})
			fm, err := r.ExecuteIndex(il)
			if err != nil {
				t.Fatal(err)
			}
			if err := fm.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if st := r.Stats(); st.Fallbacks != 1 || st.Expanded != 1 || st.IndexLaunched != 0 || st.TasksExecuted != n {
				t.Errorf("fallbacks=%d expanded=%d indexLaunched=%d tasks=%d, want 1/1/0/%d",
					st.Fallbacks, st.Expanded, st.IndexLaunched, st.TasksExecuted, n)
			}
			issues := 0
			for _, ev := range rec.Snapshot().Events {
				if ev.Stage == obs.StageIssue {
					issues++
				}
			}
			if issues != n {
				t.Errorf("%d issue spans, want %d (one per point)", issues, n)
			}
			want := make([]float64, size)
			stepModel(want, il)
			wantValues(t, tree, want)
		})
	}
}

// ExecuteLoop runs each point on the node ExecuteIndex runs it on: the
// sharding functor's placement in the launch domain, which these mappers'
// slicing functors agree with.
func TestLoopPlacesPointsAsIndexLaunch(t *testing.T) {
	for _, m := range []struct {
		name   string
		mapper Mapper
	}{{"block", BlockMapper{}}, {"cyclic", CyclicMapper{}}} {
		for _, dcr := range []bool{true, false} {
			for _, reqs := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/dcr=%v/reqs=%d", m.name, dcr, reqs), func(t *testing.T) {
					r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true, Mapper: m.mapper})
					defer r.Shutdown()
					where := r.MustRegisterTask("where", func(ctx *Context) ([]byte, error) {
						return []byte{byte(ctx.Node)}, nil
					})
					d := domain.Range1(0, 9)
					il := core.MustForall("where", where, d)
					if reqs == 1 {
						_, p := lineSetup(t, 10, 10)
						il = core.MustForall("where", where, d, core.Requirement{Partition: p,
							Functor: projection.Identity(1), Priv: privilege.Read, Fields: []region.FieldID{fieldVal}})
					}
					idx, err := r.ExecuteIndex(il)
					if err != nil {
						t.Fatal(err)
					}
					loop, err := r.ExecuteLoop(il)
					if err != nil {
						t.Fatal(err)
					}
					nodes := map[byte]bool{}
					for _, p := range d.Points() {
						fi, _ := idx.At(p)
						fl, _ := loop.At(p)
						vi, erri := fi.Get()
						vl, errl := fl.Get()
						if erri != nil || errl != nil || len(vi) != 1 || len(vl) != 1 {
							t.Fatalf("point %v: %v %v / %v %v", p, vi, erri, vl, errl)
						}
						if vi[0] != vl[0] {
							t.Errorf("point %v ran on node %d as an index launch, on node %d in the loop", p, vi[0], vl[0])
						}
						nodes[vl[0]] = true
					}
					if len(nodes) != 4 {
						t.Errorf("the loop used nodes %v, want all 4", nodes)
					}
				})
			}
		}
	}
}

// In cluster mode a task loop's remote region-free point is an Exec request
// of its own, run on the worker that owns it: the paper's centralized No-IDX
// shape, where node 0 sends every task.
func TestClusterLoopExecsEachRemotePoint(t *testing.T) {
	const nodes, points = 4, 32
	reg := metrics.NewRegistry()
	tc := newTestCluster(t, nodes, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	d := domain.Range1(0, points-1)
	fm, err := r.ExecuteLoop(&core.IndexLaunch{Task: registerSquare(r), Tag: "sq", Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	wantSquares(t, fm, d)
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	remote := int64(0)
	for n := 1; n < nodes; n++ {
		var owned int64
		for _, p := range d.Points() {
			if (BlockMapper{}).ShardPoint(d, p, nodes) == n {
				owned++
			}
		}
		if got := tc.executed[n].Load(); got != owned {
			t.Errorf("worker %d executed %d points, want the %d it owns", n, got, owned)
		}
		remote += owned
	}
	if got := reg.Counter("wire_execs_total", "").Value(); got != remote {
		t.Errorf("wire_execs_total = %d, want %d: one Exec per remote point", got, remote)
	}
	if st := r.Stats(); st.Expanded != 1 || st.LaunchCalls != 0 || st.TasksExecuted != points {
		t.Errorf("expanded=%d launchCalls=%d tasks=%d, want 1/0/%d", st.Expanded, st.LaunchCalls, st.TasksExecuted, points)
	}
}
