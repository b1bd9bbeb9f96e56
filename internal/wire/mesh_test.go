package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/xport"
)

// sink collects deliveries for one mesh node.
type sink struct {
	mu   sync.Mutex
	got  []string // "tag:payload" in arrival order
	tags map[string]int
}

func newSink() *sink { return &sink{tags: map[string]int{}} }

func (s *sink) deliver(node int, tag string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, tag+":"+string(payload))
	s.tags[tag]++
}

// payloads returns the delivered payloads in arrival order.
func (s *sink) payloads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.got))
	for i, g := range s.got {
		out[i] = g[strings.Index(g, ":")+1:]
	}
	return out
}

func (s *sink) count(tag string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tags[tag]
}

// meshesOver builds one mesh per fabric (node i on fabs[i]), each with its
// own sink and the test Exec handler. The meshes share one registry, so any
// node's Stats aggregates the whole tree's counters, as the in-process
// assembly's do.
func meshesOver(t *testing.T, fabs []Fabric, rp xport.RetransmitPolicy) ([]*Mesh, []*sink) {
	t.Helper()
	reg := metrics.NewRegistry()
	meshes := make([]*Mesh, len(fabs))
	sinks := make([]*sink, len(fabs))
	for i, fab := range fabs {
		sinks[i] = newSink()
		m, err := NewMesh(MeshConfig{
			Self: i, Nodes: len(fabs), Fabric: fab, Retransmit: rp, Metrics: reg,
			Deliver: sinks[i].deliver,
			Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
				if task == "boom" {
					return nil, errors.New("task exploded")
				}
				return []byte(fmt.Sprintf("%s@%d", task, point.X())), nil
			},
			ExecTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return meshes, sinks
}

// hubFabrics returns the n ports of a fresh codec hub.
func hubFabrics(n int) []Fabric {
	hub := NewHub()
	fabs := make([]Fabric, n)
	for i := range fabs {
		fabs[i] = hub.Fabric(i)
	}
	return fabs
}

// loopbackMesh builds an n-node mesh over the codec hub; returns the meshes
// and each node's sink.
func loopbackMesh(t *testing.T, n int) ([]*Mesh, []*sink) {
	t.Helper()
	return meshesOver(t, hubFabrics(n), xport.RetransmitPolicy{})
}

// contractCluster is what the delivery-contract table drives: node 0's
// endpoint of some assembly, a way to read what each node was delivered,
// and whether the fabric under it loses frames by itself.
type contractCluster struct {
	root  *xport.Endpoint
	got   func(node int) []string
	lossy bool
}

// contractFabrics are the fabrics the engine's delivery contract is checked
// over. wrap0, when non-nil, decorates node 0's fabric (the lossless rows'
// way to lose a frame).
var contractFabrics = []struct {
	name  string
	build func(t *testing.T, n int, wrap0 func(Fabric) Fabric) contractCluster
}{
	{"hub", func(t *testing.T, n int, wrap0 func(Fabric) Fabric) contractCluster {
		fabs := hubFabrics(n)
		if wrap0 != nil {
			fabs[0] = wrap0(fabs[0])
		}
		meshes, sinks := meshesOver(t, fabs, xport.RetransmitPolicy{Timeout: 2 * time.Millisecond, MaxBackoff: 8 * time.Millisecond})
		return contractCluster{root: meshes[0].Endpoint, got: func(node int) []string { return sinks[node].payloads() }}
	}},
	{"chaos hub", func(t *testing.T, n int, _ func(Fabric) Fabric) contractCluster {
		var mu sync.Mutex
		got := map[int][]string{}
		tr, err := xport.New(n, xport.Options{
			Chaos: &xport.ChaosPlan{Seed: 7, Drop: 0.3, Dup: 0.25, Reorder: 0.3, DelayMax: 100 * time.Microsecond,
				Partitions: []xport.Partition{{A: 0, B: 2, AfterSends: 2, Sends: 4}}},
			Retransmit: xport.RetransmitPolicy{Timeout: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond},
			Deliver: func(node int, payload any) {
				mu.Lock()
				got[node] = append(got[node], string(payload.([]byte)))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		return contractCluster{root: tr.Endpoint, lossy: true, got: func(node int) []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), got[node]...)
		}}
	}},
	{"tcp", func(t *testing.T, n int, wrap0 func(Fabric) Fabric) contractCluster {
		fabs := tcpFabrics(t, n)
		if wrap0 != nil {
			fabs[0] = wrap0(fabs[0])
		}
		meshes, sinks := meshesOver(t, fabs, tcpRetransmit)
		return contractCluster{root: meshes[0].Endpoint, got: func(node int) []string { return sinks[node].payloads() }}
	}},
}

// TestDeliveryContract checks the one engine's delivery contract over every
// fabric it runs on: exactly-once broadcast through the tree, re-parenting
// around a dead relay, direct sends under mass failure, Recycle restarting
// sequence numbers without losing or duplicating anything, and
// retransmission until acked.
func TestDeliveryContract(t *testing.T) {
	const nodes = 8
	items := func(dsts ...int) []Item {
		out := make([]Item, len(dsts))
		for i, d := range dsts {
			out[i] = Item{Dst: d, Payload: []byte(fmt.Sprintf("p%d", d))}
		}
		return out
	}
	all := []int{1, 2, 3, 4, 5, 6, 7}
	// broadcast runs one Broadcast under a deadline: a fabric that never
	// delivers must fail the test, not hang it.
	broadcast := func(t *testing.T, c contractCluster, tag string, its []Item) {
		t.Helper()
		done := make(chan struct{})
		go func() { c.root.Broadcast(tag, its); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("broadcast %q never completed", tag)
		}
	}
	wantEach := func(t *testing.T, c contractCluster, dsts []int, copies int) {
		t.Helper()
		for _, d := range dsts {
			got := c.got(d)
			if len(got) != copies {
				t.Errorf("node %d received %v, want %d deliveries", d, got, copies)
			}
			for _, p := range got {
				if want := fmt.Sprintf("p%d", d); p != want {
					t.Errorf("node %d received %q, want %q", d, p, want)
				}
			}
		}
	}
	for _, fc := range contractFabrics {
		t.Run(fc.name, func(t *testing.T) {
			t.Run("exactly once", func(t *testing.T) {
				c := fc.build(t, nodes, nil)
				broadcast(t, c, "b", items(all...))
				wantEach(t, c, all, 1)
				if got := c.got(0); len(got) != 0 {
					t.Errorf("origin received its own broadcast: %v", got)
				}
				c.root.Quiesce()
				// 7 destinations through the binary tree: depth(1..7) =
				// 1+1+2+2+2+2+3 = 13 first transmissions on any fabric. A
				// lossless fabric drops nothing, and the only duplicates it
				// can see are ack timeouts that fired under load.
				st := c.root.Stats()
				if st.Sends != 13 || st.Reparents != 0 || st.DirectBroadcasts != 0 {
					t.Errorf("stats = %+v, want 13 tree sends", st)
				}
				// Node 0's own links: 1, 3, 4, 7 route via 0->1; 2, 5, 6 via 0->2.
				if st.PerLink["0->1"].Sends != 4 || st.PerLink["0->2"].Sends != 3 {
					t.Errorf("per-link sends = %+v, want 0->1:4 0->2:3", st.PerLink)
				}
				if !c.lossy && (st.Drops != 0 || st.Dedups > st.Retransmits) {
					t.Errorf("stats = %+v, want no drops and no duplicate without a retransmission", st)
				}
			})
			t.Run("re-parent around a dead relay", func(t *testing.T) {
				c := fc.build(t, nodes, nil)
				// Node 1 relays for 3 and 4 (and 7 via 3): killing it must
				// re-parent the subtree onto node 0.
				c.root.MarkDead(1)
				rest := all[1:]
				broadcast(t, c, "b", items(rest...))
				wantEach(t, c, rest, 1)
				if got := c.got(1); len(got) != 0 {
					t.Errorf("dead node received traffic: %v", got)
				}
				// Orphans of node 1: 3 and 4 (7 keeps its live parent 3).
				if st := c.root.Stats(); st.Reparents != 2 {
					t.Errorf("reparents = %d, want 2", st.Reparents)
				}
				if sh := c.root.Shape(); sh.Live != nodes-1 {
					t.Errorf("shape reports %d live, want %d", sh.Live, nodes-1)
				}
				c.root.MarkAlive(1)
				if sh := c.root.Shape(); sh.Live != nodes {
					t.Error("MarkAlive did not readmit the node")
				}
			})
			t.Run("direct sends under mass failure", func(t *testing.T) {
				c := fc.build(t, nodes, nil)
				for _, d := range []int{1, 2, 3, 4, 5} {
					c.root.MarkDead(d)
				}
				broadcast(t, c, "b", items(6, 7))
				wantEach(t, c, []int{6, 7}, 1)
				// Direct routes are single hops: one send per destination.
				if st := c.root.Stats(); st.DirectBroadcasts != 1 || st.Sends != 2 {
					t.Errorf("stats = %+v, want 1 direct broadcast of 2 sends", st)
				}
			})
			t.Run("recycle resets sequences", func(t *testing.T) {
				c := fc.build(t, nodes, nil)
				// Recycle on the origin only: receivers learn the new
				// generation from the next frame and reset their dedup
				// state, so the repeated sequence numbers are NOT
				// duplicates, while cumulative stats keep counting.
				for round := 0; round < 4; round++ {
					if round == 2 {
						c.root.Recycle()
					}
					broadcast(t, c, "b", items(all...))
				}
				wantEach(t, c, all, 4)
				c.root.Quiesce()
				st := c.root.Stats()
				if st.Sends != 52 {
					t.Errorf("sends = %d across the recycle, want 52", st.Sends)
				}
				if !c.lossy && st.Dedups > st.Retransmits {
					t.Errorf("%d dedups but %d retransmissions on a lossless fabric: recycled sequences were mistaken for duplicates", st.Dedups, st.Retransmits)
				}
			})
			t.Run("retransmit until acked", func(t *testing.T) {
				// The chaos plan loses frames by itself; the lossless
				// fabrics get a node-0 port that swallows the first
				// transmission of every data frame.
				c := fc.build(t, nodes, func(f Fabric) Fabric { return &firstDropFabric{inner: f} })
				for round := 0; round < 4; round++ {
					broadcast(t, c, "b", items(all...))
				}
				wantEach(t, c, all, 4)
				if st := c.root.Stats(); st.Retransmits == 0 {
					t.Errorf("no retransmissions recorded despite drops: %+v", st)
				} else if c.lossy && st.Drops == 0 {
					t.Errorf("chaos plan dropped nothing: %+v", st)
				}
			})
		})
	}
}

func TestMeshExec(t *testing.T) {
	meshes, _ := loopbackMesh(t, 3)
	val, err := meshes[0].Exec(2, "square", domain.Pt1(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "square@12" {
		t.Fatalf("got %q", val)
	}
	// A task error is a task error, not unreachability.
	_, err = meshes[0].Exec(1, "boom", domain.Pt1(0), nil)
	if err == nil || errors.Is(err, ErrUnreachable) {
		t.Fatalf("task failure reported as %v", err)
	}
	// Out-of-range destinations are unreachable.
	if _, err := meshes[0].Exec(99, "square", domain.Pt1(0), nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
}

func TestMeshExecConcurrent(t *testing.T) {
	meshes, _ := loopbackMesh(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := 1 + i%3
			val, err := meshes[0].Exec(dst, "t", domain.Pt1(int64(i)), nil)
			if err != nil {
				errs <- err
				return
			}
			if want := fmt.Sprintf("t@%d", i); string(val) != want {
				errs <- fmt.Errorf("got %q want %q", val, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// firstDropFabric swallows the first transmission of every distinct data
// frame (keyed by destination and seq) and forwards everything else.
type firstDropFabric struct {
	inner Fabric
	mu    sync.Mutex
	seen  map[[2]uint64]bool
}

func (f *firstDropFabric) Send(dst int, fr *Frame) error {
	if fr.Kind == KindData {
		key := [2]uint64{uint64(dst), fr.Seq}
		f.mu.Lock()
		if f.seen == nil {
			f.seen = map[[2]uint64]bool{}
		}
		first := !f.seen[key]
		f.seen[key] = true
		f.mu.Unlock()
		if first {
			return nil // dropped on the floor
		}
	}
	return f.inner.Send(dst, fr)
}

func (f *firstDropFabric) SetReceiver(fn func(*Frame)) { f.inner.SetReceiver(fn) }
func (f *firstDropFabric) Peers() []PeerStatus         { return f.inner.Peers() }
func (f *firstDropFabric) Close() error                { return f.inner.Close() }

func TestMeshPeersSorted(t *testing.T) {
	meshes, _ := loopbackMesh(t, 4)
	peers := meshes[2].Peers()
	if len(peers) != 3 {
		t.Fatalf("got %d peers, want 3", len(peers))
	}
	want := []int{0, 1, 3}
	for i, p := range peers {
		if p.Node != want[i] {
			t.Fatalf("peer order %v", peers)
		}
	}
}
