package rt

import (
	"errors"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// testCluster stands up an n-node wire mesh over the in-process loopback
// hub: node 0 is returned for the runtime, nodes 1..n-1 act as workers
// whose Exec handler runs fn and whose deliveries are collected. A non-nil
// plan puts the mesh under chaos the way any mesh is: every node's fabric
// is wrapped in xport.WithChaos where the mesh is built.
type testCluster struct {
	meshes   []*wire.Mesh
	executed []atomic.Int64 // per-node remote executions

	mu     sync.Mutex
	slices map[int][]ClusterMsg // node -> received slice messages
}

func newTestCluster(t *testing.T, n int, fn func(task string, point domain.Point, args []byte) ([]byte, error), plan *xport.ChaosPlan) *testCluster {
	t.Helper()
	hub := wire.NewHub()
	tc := &testCluster{
		meshes:   make([]*wire.Mesh, n),
		executed: make([]atomic.Int64, n),
		slices:   map[int][]ClusterMsg{},
	}
	for i := 0; i < n; i++ {
		m, err := wire.NewMesh(wire.MeshConfig{
			Self: i, Nodes: n, Fabric: xport.WithChaos(hub.Fabric(i), plan),
			Retransmit: fastRetransmit,
			Deliver: func(node int, tag string, payload []byte) {
				msg, err := DecodeClusterPayload(payload)
				if err != nil {
					t.Errorf("node %d: bad cluster payload: %v", node, err)
					return
				}
				tc.mu.Lock()
				tc.slices[node] = append(tc.slices[node], msg)
				tc.mu.Unlock()
			},
			Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
				tc.executed[i].Add(1)
				return fn(task, point, args)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.meshes[i] = m
		t.Cleanup(func() { _ = m.Close() })
	}
	return tc
}

func TestClusterLoopbackRemoteExecution(t *testing.T) {
	const nodes = 3
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		return EncodeF64(float64(point.X() * point.X())), nil
	}
	// run executes one 30-point launch on a cluster under plan and returns
	// the result sum, the runtime stats and the per-node remote executions.
	run := func(t *testing.T, plan *xport.ChaosPlan) (float64, Stats, []int64) {
		tc := newTestCluster(t, nodes, body, plan)
		r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Cluster: tc.meshes[0]})
		defer r.Shutdown()

		// The registered body is what node-0-local points run; workers run
		// the mesh Exec handler above. Both compute x².
		id := r.MustRegisterTask("square", func(ctx *Context) ([]byte, error) {
			return EncodeF64(float64(ctx.Point.X() * ctx.Point.X())), nil
		})

		fm, err := r.ExecuteIndex(&core.IndexLaunch{
			Task:   id,
			Tag:    "squares",
			Domain: domain.Range1(0, 29),
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := fm.SumF64()
		if err != nil {
			t.Fatal(err)
		}
		if fm.Len() != 30 {
			t.Fatalf("got %d results, want 30", fm.Len())
		}
		r.Fence()

		// Workers received their slice descriptors.
		tc.mu.Lock()
		defer tc.mu.Unlock()
		for n := 1; n < nodes; n++ {
			found := false
			for _, m := range tc.slices[n] {
				if m.Kind == "slice" && m.Slice.Node == n && !m.Slice.Domain.Empty() {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d received no slice descriptor: %+v", n, tc.slices[n])
			}
		}
		executed := make([]int64, nodes)
		for i := range executed {
			executed[i] = tc.executed[i].Load()
		}
		return sum, r.Stats(), executed
	}

	refSum, refSt, refExec := run(t, nil)
	var want float64
	for _, p := range domain.Range1(0, 29).Points() {
		want += float64(p.X() * p.X())
	}
	if refSum != want {
		t.Fatalf("results sum to %v, want %v", refSum, want)
	}
	// Most points belong to worker nodes (block mapping over 3 nodes →
	// ~20 of 30 points) and must have executed in the "worker" meshes.
	if refExec[1]+refExec[2] == 0 {
		t.Fatal("no remote executions: cluster mode ran everything locally")
	}
	if refExec[0] != 0 {
		t.Fatal("node 0 received Exec requests; local points must run locally")
	}

	// Chaos and cluster compose: the same launch with every mesh fabric
	// under the chaos property suite's plan is indistinguishable from the
	// fault-free run — results, task counts and which worker ran what.
	for _, seed := range chaosSeeds(t) {
		t.Run("chaos/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			sum, st, exec := run(t, &xport.ChaosPlan{
				Seed: seed, Drop: 0.15, Dup: 0.2, Reorder: 0.3,
				DelayMax:   100 * time.Microsecond,
				Partitions: []xport.Partition{{A: 0, B: 2, AfterSends: 1, Sends: 3}},
			})
			if sum != refSum {
				t.Errorf("sum = %v, fault-free = %v", sum, refSum)
			}
			if st.TasksExecuted != refSt.TasksExecuted || st.TasksFailed != refSt.TasksFailed ||
				st.IndexLaunched != refSt.IndexLaunched || st.Retries != refSt.Retries {
				t.Errorf("task counts diverged:\nchaos:      %+v\nfault-free: %+v", st, refSt)
			}
			if !reflect.DeepEqual(exec, refExec) {
				t.Errorf("per-worker executed points = %v, fault-free = %v", exec, refExec)
			}
			if st.MsgDrops == 0 {
				t.Error("chaos plan dropped nothing: the mesh was not under the plan")
			}
		})
	}
}

func TestClusterRemoteTaskErrorFeedsRetryLadder(t *testing.T) {
	var failures atomic.Int64
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		if failures.Add(1) <= 2 {
			return nil, errors.New("transient worker failure")
		}
		return EncodeF64(1), nil
	}
	tc := newTestCluster(t, 2, body, nil)
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, IndexLaunches: true,
		Cluster: tc.meshes[0], Retry: RetryPolicy{Max: 3}})
	defer r.Shutdown()
	id := r.MustRegisterTask("flaky", func(ctx *Context) ([]byte, error) {
		return EncodeF64(1), nil
	})
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "t", Domain: domain.Range1(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if werr := fm.Wait(); werr != nil {
		t.Fatalf("points failed despite retries: %v", werr)
	}
	if r.Stats().Retries == 0 {
		t.Fatal("remote failures did not drive the retry ladder")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	tc := newTestCluster(t, 3, func(string, domain.Point, []byte) ([]byte, error) { return nil, nil }, nil)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"dcr", Config{Nodes: 3, ProcsPerNode: 1, DCR: true, Cluster: tc.meshes[0]}},
		{"node-count", Config{Nodes: 5, ProcsPerNode: 1, Cluster: tc.meshes[0]}},
		{"not-node-zero", Config{Nodes: 3, ProcsPerNode: 1, Cluster: tc.meshes[1]}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Fatalf("%s: config accepted", c.name)
		}
	}
}

func TestClusterPayloadRoundTrip(t *testing.T) {
	dense := Slice{Domain: domain.Range1(5, 25), Node: 2}
	b := encodeSlicePayload(7, dense)
	msg, err := DecodeClusterPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "slice" || msg.Index != 7 || msg.Slice.Node != 2 || !msg.Slice.Domain.Eq(dense.Domain) {
		t.Fatalf("dense round trip: %+v", msg)
	}

	sparse := Slice{Domain: domain.DiagonalSlice3(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(3, 3, 3)}, 4), Node: 1}
	b = encodeSlicePayload(0, sparse)
	msg, err = DecodeClusterPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "slice" || !msg.Slice.Domain.Eq(sparse.Domain) || !msg.Slice.Domain.Sparse() {
		t.Fatalf("sparse round trip: %+v", msg)
	}

	b = encodeResyncPayload(-9)
	msg, err = DecodeClusterPayload(b)
	if err != nil || msg.Kind != "resync" || msg.Epoch != -9 {
		t.Fatalf("resync round trip: %v %+v", err, msg)
	}

	for _, bad := range [][]byte{nil, {99}, {1, 0x80}, {2}} {
		if _, err := DecodeClusterPayload(bad); err == nil {
			t.Fatalf("payload %v accepted", bad)
		}
	}
}
