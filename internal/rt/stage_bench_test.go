package rt

import (
	"fmt"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

// The stage benchmarks call the four §5 stage methods directly, one launch
// per op (so ns/op and allocs/op are per launch), at |D| ∈ {64, 1024, 4096}
// for a region-free launch and a launch with one region requirement. Each
// benchmark runs only its own stage's work — the launch-level method plus
// the per-point calls issuePoint charges to that stage — on the centralized
// path with VerifyLaunches on, where every stage has something to do:
//
//   - Issue: open the launch and its future map, walk its points building
//     their region views, close it (release the group, one fence entry).
//   - Logical: the safety verification of the whole launch.
//   - Distribute: slice the domain, ship the slices through the in-process
//     transport, then place every point (nodeOf + faultCheck).
//   - Physical: per-point dependence analysis against the version map, and
//     the run state of a point that runs on node 0.
//
// A stage whose cost is flat from 64 to 4096 points is O(1) in the launch;
// the others are what ROADMAP item 1 must flatten.
func benchStages(b *testing.B, stage func(b *testing.B, r *Runtime, il *core.IndexLaunch, regs [][]*region.Region)) {
	for _, points := range []int64{64, 1024, 4096} {
		for _, reqs := range []int{0, 1} {
			b.Run(fmt.Sprintf("D=%d/reqs=%d", points, reqs), func(b *testing.B) {
				r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true, VerifyLaunches: true})
				defer r.Shutdown()
				task := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
				il := core.MustForall("bench", task, domain.Range1(0, points-1))
				if reqs == 1 {
					fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
					tree := region.MustNewTree("bench", domain.Range1(0, points-1), fs)
					part, err := tree.PartitionEqual(tree.Root(), "blocks", int(points))
					if err != nil {
						b.Fatal(err)
					}
					il = core.MustForall("bench", task, domain.Range1(0, points-1), core.Requirement{
						Partition: part, Functor: projection.Identity(1),
						Priv: privilege.ReadWrite, Fields: []region.FieldID{0},
					})
				}
				var regs [][]*region.Region
				_ = il.Each(func(pt core.PointTask) bool {
					regs = append(regs, pt.Regions)
					return true
				})
				r.issueMu.Lock()
				defer r.issueMu.Unlock()
				b.ReportAllocs()
				b.ResetTimer()
				stage(b, r, il, regs)
			})
		}
	}
}

func (r *Runtime) benchIssue(b *testing.B, il *core.IndexLaunch) *launch {
	l, err := r.issue(il.Task, il.Tag, il.Domain, int(il.Parallelism()))
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkStageIssue's idx rows are the issue stage of one index launch;
// its loop rows issue the same launch as a task loop (ExecuteLoop's body):
// |D| single launches, each through every issuance-side stage and started
// on its node's run queue, so their ns and allocs per op grow with |D|.
func BenchmarkStageIssue(b *testing.B) {
	b.Run("idx", func(b *testing.B) {
		benchStages(b, func(b *testing.B, r *Runtime, il *core.IndexLaunch, _ [][]*region.Region) {
			for i := 0; i < b.N; i++ {
				l := r.benchIssue(b, il)
				l.fm = newFutureMap(l.dom)
				l.done = l.fm.done
				_ = il.Each(func(core.PointTask) bool { return true })
				// Nothing runs these points: launchDone releases them unissued.
				r.launchDone(l)
			}
		})
	})
	b.Run("loop", func(b *testing.B) {
		benchStages(b, func(b *testing.B, r *Runtime, il *core.IndexLaunch, _ [][]*region.Region) {
			for i := 0; i < b.N; i++ {
				if _, err := r.loop(il); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkStageLogical(b *testing.B) {
	benchStages(b, func(b *testing.B, r *Runtime, il *core.IndexLaunch, _ [][]*region.Region) {
		for i := 0; i < b.N; i++ {
			r.logical(il)
		}
	})
}

func BenchmarkStageDistribute(b *testing.B) {
	benchStages(b, func(b *testing.B, r *Runtime, il *core.IndexLaunch, _ [][]*region.Region) {
		pts, l := il.Domain.Points(), r.benchIssue(b, il)
		for i := 0; i < b.N; i++ {
			r.distribute(l, true, false)
			for _, p := range pts {
				owner, _ := r.nodeOf(l, p)
				r.faultCheck(l.dom, p, owner)
			}
		}
	})
}

func BenchmarkStagePhysical(b *testing.B) {
	benchStages(b, func(b *testing.B, r *Runtime, il *core.IndexLaunch, regs [][]*region.Region) {
		pts, l := il.Domain.Points(), r.benchIssue(b, il)
		l.reqs = launchReqs(il)
		for i := 0; i < b.N; i++ {
			for j, p := range pts {
				r.physical(l, &taskRun{runHeader: l.runHeader, regions: regs[j]}, p)
			}
		}
	})
}

// BenchmarkStageIssueCluster is node 0's issuance of a region-free launch
// in cluster mode (a 3-node loopback mesh): open the launch and its future
// map, slice the domain and file the points into one run per node — all
// of ExecuteIndex before the slices start. The slices never start, so
// nothing executes and ns/op, B/op and allocs/op are issuance alone. Allocs
// flat from |D| = 64 to 16384 mean node 0 files by slice; bytes grow with
// the future map's dense slots.
func BenchmarkStageIssueCluster(b *testing.B) {
	for _, points := range []int64{64, 1024, 16384} {
		b.Run(fmt.Sprintf("D=%d", points), func(b *testing.B) {
			tc := newTestCluster(b, 3, squareBody, nil)
			r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
			defer r.Shutdown()
			il := core.MustForall("bench", registerSquare(r), domain.Range1(0, points-1))
			r.issueMu.Lock()
			defer r.issueMu.Unlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := r.benchIssue(b, il)
				l.fm = newFutureMap(l.dom)
				r.distribute(l, true, true)
				r.file(l)
			}
		})
	}
}
