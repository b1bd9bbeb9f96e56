package rt

import (
	"sync/atomic"
	"testing"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
)

func TestBlockMapperShardPoint(t *testing.T) {
	d := domain.Range1(0, 99)
	m := BlockMapper{}
	// Block distribution: first quarter on node 0, last quarter on node 3.
	if n := m.ShardPoint(d, domain.Pt1(0), 4); n != 0 {
		t.Errorf("point 0 -> node %d", n)
	}
	if n := m.ShardPoint(d, domain.Pt1(99), 4); n != 3 {
		t.Errorf("point 99 -> node %d", n)
	}
	if n := m.ShardPoint(d, domain.Pt1(50), 4); n != 2 {
		t.Errorf("point 50 -> node %d", n)
	}
}

func TestBlockMapperShardSparseDomain(t *testing.T) {
	d := domain.DiagonalSlice3(domain.Rect3(0, 0, 0, 3, 3, 3), 4)
	m := BlockMapper{}
	counts := map[int]int{}
	d.Each(func(p domain.Point) bool {
		n := m.ShardPoint(d, p, 3)
		if n < 0 || n >= 3 {
			t.Fatalf("point %v -> node %d", p, n)
		}
		counts[n]++
		return true
	})
	// Near-equal split across the 3 nodes.
	for n, c := range counts {
		if c < int(d.Volume()/3) || c > int(d.Volume()/3)+2 {
			t.Errorf("node %d holds %d of %d points", n, c, d.Volume())
		}
	}
}

func TestBlockMapperSliceAgreesWithShard(t *testing.T) {
	// The default mapper's slicing and sharding functors and its inverse
	// are one block rule, so DCR and non-DCR runs place tasks identically
	// and a node's block is exactly the points sharded to it: over dense
	// 1-d domains of every size from 1 to 200, a sparse and a 2-d domain,
	// on 1 to 8 nodes.
	var doms []domain.Domain
	for n := int64(1); n <= 200; n++ {
		doms = append(doms, domain.Range1(0, n-1))
	}
	doms = append(doms, domain.DiagonalSlice3(domain.Rect3(0, 0, 0, 5, 5, 5), 7),
		domain.FromRect(domain.Rect2(-2, 1, 4, 7)))
	m := BlockMapper{}
	for _, d := range doms {
		for nodes := 1; nodes <= 8; nodes++ {
			var next int64
			slices := m.Slice(d, nodes)
			for node := 0; node < nodes; node++ {
				lo, hi, ok := m.ShardRange(d, node, nodes)
				if !ok || lo != next || hi < lo {
					t.Fatalf("%v on %d nodes: node %d range [%d, %d) %v after %d", d, nodes, node, lo, hi, ok, next)
				}
				next = hi
				for rank := lo; rank < hi; rank++ {
					if got := m.ShardPoint(d, d.PointAt(rank), nodes); got != node {
						t.Errorf("%v on %d nodes: rank %d in node %d's range, shard says %d", d, nodes, rank, node, got)
					}
				}
			}
			if next != d.Volume() {
				t.Errorf("%v on %d nodes: ranges cover %d of %d points", d, nodes, next, d.Volume())
			}
			for _, s := range slices {
				lo, hi, _ := m.ShardRange(d, s.Node, nodes)
				if s.Domain.Volume() != hi-lo || !s.Domain.PointAt(0).Eq(d.PointAt(lo)) {
					t.Errorf("%v on %d nodes: node %d's slice %v is not its range [%d, %d)", d, nodes, s.Node, s.Domain, lo, hi)
				}
				s.Domain.Each(func(p domain.Point) bool {
					if got := m.ShardPoint(d, p, nodes); got != s.Node {
						t.Errorf("%v on %d nodes: point %v: slice says %d, shard says %d", d, nodes, p, s.Node, got)
					}
					return true
				})
			}
		}
	}
}

func TestCyclicMapper(t *testing.T) {
	d := domain.Range1(0, 9)
	m := CyclicMapper{}
	for i := int64(0); i < 10; i++ {
		if n := m.ShardPoint(d, domain.Pt1(i), 3); n != int(i%3) {
			t.Errorf("point %d -> node %d, want %d", i, n, i%3)
		}
	}
	slices := m.Slice(d, 3)
	var total int64
	for _, s := range slices {
		s.Domain.Each(func(p domain.Point) bool {
			if m.ShardPoint(d, p, 3) != s.Node {
				t.Errorf("slice/shard disagreement at %v", p)
			}
			return true
		})
		total += s.Domain.Volume()
	}
	if total != 10 {
		t.Errorf("slices cover %d points", total)
	}
}

func TestPinnedMapperRoutesEverything(t *testing.T) {
	var executedOn [4]atomic.Int64
	r := MustNew(Config{
		Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Mapper: PinnedMapper{Node: 2},
	})
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("m", domain.Range1(0, 15), fs)
	part, _ := tree.PartitionEqual(tree.Root(), "b", 8)
	task := r.MustRegisterTask("where", func(ctx *Context) ([]byte, error) {
		executedOn[ctx.Node].Add(1)
		return nil, nil
	})
	launch := core.MustForall("where", task, domain.Range1(0, 7), core.Requirement{
		Partition: part, Functor: projection.Identity(1),
		Priv: privilege.Read, Fields: []region.FieldID{0},
	})
	fm, err := r.ExecuteIndex(launch)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Wait(); err != nil {
		t.Fatal(err)
	}
	for n := range executedOn {
		want := int64(0)
		if n == 2 {
			want = 8
		}
		if got := executedOn[n].Load(); got != want {
			t.Errorf("node %d executed %d tasks, want %d", n, got, want)
		}
	}
}

func TestCustomMapperUsedForSlicing(t *testing.T) {
	// Non-DCR mode consults the slicing functor.
	var executedOn [2]atomic.Int64
	r := MustNew(Config{
		Nodes: 2, ProcsPerNode: 2, DCR: false, IndexLaunches: true,
		Mapper: CyclicMapper{},
	})
	fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree := region.MustNewTree("m", domain.Range1(0, 7), fs)
	part, _ := tree.PartitionEqual(tree.Root(), "b", 8)
	task := r.MustRegisterTask("where", func(ctx *Context) ([]byte, error) {
		executedOn[ctx.Node].Add(1)
		return nil, nil
	})
	launch := core.MustForall("where", task, domain.Range1(0, 7), core.Requirement{
		Partition: part, Functor: projection.Identity(1),
		Priv: privilege.Read, Fields: []region.FieldID{0},
	})
	fm, err := r.ExecuteIndex(launch)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.Wait(); err != nil {
		t.Fatal(err)
	}
	if executedOn[0].Load() != 4 || executedOn[1].Load() != 4 {
		t.Errorf("cyclic slicing: node0=%d node1=%d, want 4/4",
			executedOn[0].Load(), executedOn[1].Load())
	}
}
