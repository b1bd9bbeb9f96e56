package rt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/trace"
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
	slices map[int][]delivered // node -> received slice descriptors
}

// delivered is one slice descriptor a worker's Deliver callback decoded.
type delivered struct {
	Index int
	Slice Slice
}

func newTestCluster(t testing.TB, n int, fn func(task string, point domain.Point, args []byte) ([]byte, error), plan *xport.ChaosPlan, tweak ...func(node int, cfg *wire.MeshConfig)) *testCluster {
	t.Helper()
	hub := wire.NewHub()
	tc := &testCluster{
		meshes:   make([]*wire.Mesh, n),
		executed: make([]atomic.Int64, n),
		slices:   map[int][]delivered{},
	}
	for i := 0; i < n; i++ {
		cfg := wire.MeshConfig{
			Self: i, Nodes: n, Fabric: xport.WithChaos(hub.Fabric(i), plan),
			Retransmit: fastRetransmit,
			Deliver: func(node int, tag string, payload []byte) {
				idx, owner, dom, err := wire.DecodeSlicePayload(payload)
				if err != nil {
					t.Errorf("node %d: bad slice payload: %v", node, err)
					return
				}
				tc.mu.Lock()
				tc.slices[node] = append(tc.slices[node], delivered{Index: idx, Slice: Slice{Domain: dom, Node: owner}})
				tc.mu.Unlock()
			},
			Exec: func(task string, point domain.Point, args []byte) ([]byte, error) {
				tc.executed[i].Add(1)
				return fn(task, point, args)
			},
		}
		for _, tw := range tweak {
			tw(i, &cfg)
		}
		m, err := wire.NewMesh(cfg)
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
		r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
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
				if m.Slice.Node == n && !m.Slice.Domain.Empty() {
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
	for _, seed := range envSeeds(t, "CHAOS_SEEDS", chaosSeeds) {
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
		Transport: tc.meshes[0], Retry: RetryPolicy{Max: 3}})
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

// squareBody is the worker-side body most slice tests run: x².
func squareBody(task string, point domain.Point, args []byte) ([]byte, error) {
	return EncodeF64(float64(point.X() * point.X())), nil
}

// registerSquare registers the node-0-local twin of squareBody.
func registerSquare(r *Runtime) core.TaskID {
	return r.MustRegisterTask("square", func(ctx *Context) ([]byte, error) {
		return EncodeF64(float64(ctx.Point.X() * ctx.Point.X())), nil
	})
}

// wantSquares checks every point of fm against x².
func wantSquares(t *testing.T, fm *FutureMap, d domain.Domain) {
	t.Helper()
	for _, p := range d.Points() {
		f, err := fm.At(p)
		if err != nil {
			t.Fatalf("no future for %v: %v", p, err)
		}
		if v, err := f.GetF64(); err != nil || v != float64(p.X()*p.X()) {
			t.Fatalf("point %v = %v, %v; want %d", p, v, err, p.X()*p.X())
		}
	}
}

// A profiled launch keeps one execute span per point when its points run by
// slice: the workers' points on the worker's node, node 0's on node 0 —
// as rows of the launch record when the launch is traced, as event spans
// when it is only profiled. Each span's ID is the launch's first plus the
// point's slot.
func TestClusterSliceExecuteSpansPerPoint(t *testing.T) {
	const nodes = 3
	d := domain.Range1(0, 29)
	owner := map[int64]int32{}
	for _, s := range (BlockMapper{}).Slice(d, nodes) {
		for _, p := range s.Domain.Points() {
			owner[p.X()] = int32(s.Node)
		}
	}
	for _, traced := range []bool{true, false} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			tc := newTestCluster(t, nodes, squareBody, nil)
			rec := obs.NewRecorder("rt", nodes, 1<<12)
			tracer, err := trace.New(trace.Config{HeadRate: 1})
			if err != nil {
				t.Fatal(err)
			}
			sink := &countingSink{Tracer: tracer}
			rec.SetSink(sink)
			r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true,
				Transport: tc.meshes[0], Profile: rec})
			defer r.Shutdown()
			id := registerSquare(r)
			root := obs.NewTraceRef(7)
			if traced {
				tracer.Begin(root, 1, "t", 0)
				r.SetTraceRef(root.Child(1))
			}
			fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "sq", Domain: d})
			if err != nil {
				t.Fatal(err)
			}
			wantSquares(t, fm, d)
			if err := r.FenceErr(); err != nil {
				t.Fatal(err)
			}
			if got := tc.executed[1].Load() + tc.executed[2].Load(); got != 20 {
				t.Fatalf("workers executed %d points, want 20", got)
			}
			spans := rec.Snapshot().Events
			if traced {
				if retained, _ := tracer.Finish(root, rec.Now(), trace.Outcome{}); !retained {
					t.Fatal("trace not retained")
				}
				got, ok := tracer.Get("1")
				if !ok {
					t.Fatal("trace not queryable")
				}
				spans = got.Spans
			}
			if want := map[bool]int64{true: 1, false: 0}[traced]; sink.launches.Load() != want {
				t.Fatalf("sink saw %d launch records, want %d", sink.launches.Load(), want)
			}
			nodesOf, ids := map[int64][]int32{}, map[int64]int64{}
			for _, ev := range spans {
				if ev.Stage == obs.StageExecute && ev.Tag == "sq" {
					nodesOf[ev.Point.X()] = append(nodesOf[ev.Point.X()], ev.Node)
					ids[ev.Point.X()] = ev.ID
				}
			}
			base := ids[0] // slot i is point i
			if base == 0 {
				t.Fatal("point 0's execute span has no ID")
			}
			for _, p := range d.Points() {
				x := p.X()
				if got := nodesOf[x]; len(got) != 1 || got[0] != owner[x] {
					t.Errorf("point %d: execute spans on nodes %v, want one on node %d", x, got, owner[x])
				}
				if ids[x] != base+x {
					t.Errorf("point %d: execute span ID %d, want %d", x, ids[x], base+x)
				}
			}
		})
	}
}

// A fault-free job of L region-free launches over W workers costs exactly
// L·W Exec frames and L·W Result frames — one per (launch, worker) — while
// every point still runs where the per-point path ran it.
func TestClusterSliceIsOneFramePerLaunchAndWorker(t *testing.T) {
	const nodes, launches, points = 4, 5, 64
	reg := metrics.NewRegistry()
	tc := newTestCluster(t, nodes, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
		// Retransmissions are not first transmissions, but keep the ladder
		// out of a -race run's way anyway.
		cfg.Retransmit = xport.RetransmitPolicy{Timeout: time.Second, MaxBackoff: time.Second}
		if node == 0 {
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	id := registerSquare(r)
	d := domain.Range1(0, points-1)
	for l := 0; l < launches; l++ {
		fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "sq", Domain: d})
		if err != nil {
			t.Fatal(err)
		}
		wantSquares(t, fm, d)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	const workers = nodes - 1
	if got := tc.meshes[0].Stats().Sends; got != launches*workers {
		t.Errorf("node 0 sent %d reliable frames, want %d Exec frames", got, launches*workers)
	}
	if got := reg.Counter("wire_execs_total", "").Value(); got != launches*workers {
		t.Errorf("wire_execs_total = %d, want %d", got, launches*workers)
	}
	if got := reg.Counter("wire_exec_errors_total", "").Value(); got != 0 {
		t.Errorf("wire_exec_errors_total = %d, want 0", got)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for n := 1; n < nodes; n++ {
		if got := tc.meshes[n].Stats().Sends; got != launches {
			t.Errorf("worker %d sent %d reliable frames, want %d Result frames", n, got, launches)
		}
		// Block mapping: 16 points per node per launch, as on the per-point path.
		if got := tc.executed[n].Load(); got != launches*points/nodes {
			t.Errorf("worker %d executed %d points, want %d", n, got, launches*points/nodes)
		}
		// One descriptor per slice frame: the mapper's own dense slice.
		if len(tc.slices[n]) != launches {
			t.Fatalf("worker %d got %d descriptors, want %d", n, len(tc.slices[n]), launches)
		}
		want := domain.Range1(int64(n*points/nodes), int64((n+1)*points/nodes-1))
		for _, m := range tc.slices[n] {
			if m.Index != n || m.Slice.Node != n || m.Slice.Domain.Sparse() || !m.Slice.Domain.Eq(want) {
				t.Errorf("worker %d descriptor %+v, want slice %d = %v", n, m, n, want)
			}
		}
	}
	if st := r.Stats(); st.TasksExecuted != launches*points || st.TasksFailed != 0 || st.Retries != 0 {
		t.Errorf("stats %+v", st)
	}
}

// One failing point inside a slice retries alone: the rest of the slice
// commits from the one answer, and the ladder's numbers are the per-point
// path's.
func TestClusterSliceFailingPointRetriesAlone(t *testing.T) {
	var failed atomic.Bool
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		if point.X() == 17 && failed.CompareAndSwap(false, true) {
			return nil, errors.New("transient failure of point 17")
		}
		return squareBody(task, point, args)
	}
	reg := metrics.NewRegistry()
	tc := newTestCluster(t, 2, body, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, IndexLaunches: true,
		Transport: tc.meshes[0], Retry: RetryPolicy{Max: 2}})
	defer r.Shutdown()
	id := registerSquare(r)
	d := domain.Range1(0, 31) // points 16..31 are node 1's slice
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "sq", Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	wantSquares(t, fm, d)
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Retries != 1 || st.TasksExecuted != 32 || st.TasksFailed != 0 {
		t.Errorf("Retries %d TasksExecuted %d TasksFailed %d, want 1/32/0", st.Retries, st.TasksExecuted, st.TasksFailed)
	}
	// The slice's 16 points plus the one retried alone.
	if got := tc.executed[1].Load(); got != 17 {
		t.Errorf("worker executed %d points, want 16 + 1 retry", got)
	}
	// One slice frame and one single-point retry; the body error inside the
	// answered slice is a task error, not a wire error.
	if got := reg.Counter("wire_execs_total", "").Value(); got != 2 {
		t.Errorf("wire_execs_total = %d, want 2", got)
	}
	if got := reg.Counter("wire_exec_errors_total", "").Value(); got != 0 {
		t.Errorf("wire_exec_errors_total = %d, want 0", got)
	}
}

// A worker slice whose launch-wide precondition is poisoned — a replay's
// start event, here a failed writer of the traced region — is skipped
// before it ships: every point fails with ErrUpstreamFailed and no Exec
// request leaves node 0 for it.
func TestClusterSliceSkipsPoisonedReplay(t *testing.T) {
	const points = 16
	reg := metrics.NewRegistry()
	tc := newTestCluster(t, 2, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	_, part := lineSetup(t, 16, 4)
	write := func(tag string, fail bool) *core.IndexLaunch {
		id := r.MustRegisterTask(tag, func(*Context) ([]byte, error) {
			if fail {
				return nil, errors.New("writer fails")
			}
			return nil, nil
		})
		return core.MustForall(tag, id, domain.Range1(0, 3), core.Requirement{
			Partition: part, Functor: projection.Identity(1),
			Priv: privilege.ReadWrite, Fields: []region.FieldID{fieldVal}})
	}
	w, bad, sq := write("w", false), write("bad", true), registerSquare(r)
	d := domain.Range1(0, points-1)
	episode := func() *FutureMap {
		t.Helper()
		if err := r.BeginTrace(1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ExecuteIndex(w); err != nil {
			t.Fatal(err)
		}
		fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: sq, Tag: "sq", Domain: d})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(1); err != nil {
			t.Fatal(err)
		}
		return fm
	}
	wantSquares(t, episode(), d) // capture: node 1's half runs remotely
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	execs, remote := reg.Counter("wire_execs_total", "").Value(), tc.executed[1].Load()
	if execs != 1 || remote != points/2 {
		t.Fatalf("capture sent %d Exec requests running %d points remotely, want 1 and %d", execs, remote, points/2)
	}
	if _, err := r.ExecuteIndex(bad); err != nil {
		t.Fatal(err)
	}
	fm := episode() // replay: its start event is the failed writer's
	if err := r.FenceErr(); !errors.Is(err, ErrUpstreamFailed) {
		t.Fatalf("fence error %v, want ErrUpstreamFailed", err)
	}
	for _, p := range d.Points() {
		f, _ := fm.At(p)
		if _, err := f.Get(); !errors.Is(err, ErrUpstreamFailed) {
			t.Errorf("point %v: %v, want ErrUpstreamFailed", p, err)
		}
	}
	if got := reg.Counter("wire_execs_total", "").Value(); got != execs {
		t.Errorf("replay sent %d Exec requests, want none", got-execs)
	}
	if got := tc.executed[1].Load(); got != remote {
		t.Errorf("worker ran %d replayed points, want none", got-remote)
	}
	if st := r.Stats(); st.TraceReplays != 1 || st.TasksSkipped != 4+points {
		t.Errorf("TraceReplays %d TasksSkipped %d, want 1/%d", st.TraceReplays, st.TasksSkipped, 4+points)
	}
}

// dropExec is a fabric that loses every Exec frame: a worker that never
// answers.
type dropExec struct{ wire.Fabric }

func (f dropExec) Send(dst int, fr *wire.Frame) error {
	if fr.Kind == wire.KindExec {
		return nil
	}
	return f.Fabric.Send(dst, fr)
}

// A slice the transport cannot deliver falls back to local execution, every
// point of it, and the job completes.
func TestClusterSliceUnreachableWorkerFallsBackLocally(t *testing.T) {
	reg := metrics.NewRegistry()
	tc := newTestCluster(t, 3, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
		if node == 0 {
			cfg.Fabric = dropExec{cfg.Fabric}
			cfg.ExecTimeout = 50 * time.Millisecond
			cfg.Metrics = reg
		}
	})
	r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	id := registerSquare(r)
	d := domain.Range1(0, 29)
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "sq", Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	wantSquares(t, fm, d)
	if err := r.FenceTimeout(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := tc.executed[1].Load() + tc.executed[2].Load(); got != 0 {
		t.Errorf("workers executed %d points behind a fabric that drops Exec frames", got)
	}
	if st := r.Stats(); st.TasksExecuted != 30 || st.TasksFailed != 0 || st.Retries != 0 {
		t.Errorf("stats %+v", st)
	}
	// Two slices went unanswered: two failed Exec calls, not twenty.
	if got := reg.Counter("wire_exec_errors_total", "").Value(); got != 2 {
		t.Errorf("wire_exec_errors_total = %d, want 2", got)
	}
}

// Issuance never waits for the network: with the workers' bodies parked,
// back-to-back launches still return.
func TestClusterIssuanceDoesNotBlockOnTheNetwork(t *testing.T) {
	release := make(chan struct{})
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		<-release
		return squareBody(task, point, args)
	}
	tc := newTestCluster(t, 3, body, nil)
	r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true, Transport: tc.meshes[0]})
	defer r.Shutdown()
	id := registerSquare(r)
	d := domain.Range1(0, 29)
	var fms []*FutureMap
	issued := make(chan error, 1)
	go func() {
		for l := 0; l < 4; l++ {
			fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "sq", Domain: d})
			if err != nil {
				issued <- err
				return
			}
			fms = append(fms, fm)
		}
		issued <- nil
	}()
	select {
	case err := <-issued:
		if err != nil {
			close(release)
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("ExecuteIndex blocked on workers whose bodies are parked")
	}
	for _, fm := range fms {
		if fm.Len() != 30 {
			t.Errorf("launch returned %d futures", fm.Len())
		}
	}
	close(release)
	for _, fm := range fms {
		wantSquares(t, fm, d)
	}
	r.Fence()
}

// Per-point payloads and sparse (cyclic) slices cross the wire in slice
// order: every point gets its own payload back.
func TestClusterSlicePointArgsAndSparseSlices(t *testing.T) {
	body := func(task string, point domain.Point, args []byte) ([]byte, error) {
		if len(args) != 8 {
			return nil, fmt.Errorf("point %v got a %d-byte payload", point, len(args))
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(args))
		return EncodeF64(v + float64(point.X())), nil
	}
	tc := newTestCluster(t, 3, body, nil)
	r := MustNew(Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true,
		Transport: tc.meshes[0], Mapper: CyclicMapper{}})
	defer r.Shutdown()
	id := r.MustRegisterTask("add", func(ctx *Context) ([]byte, error) {
		return body("add", ctx.Point, ctx.Args)
	})
	d := domain.Range1(0, 20)
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "pp", Domain: d,
		PointArgs: func(p domain.Point) []byte { return EncodeF64(float64(1000 * p.X())) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points() {
		f, err := fm.At(p)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := f.GetF64(); err != nil || v != float64(1001*p.X()) {
			t.Fatalf("point %v = %v, %v; want %d", p, v, err, 1001*p.X())
		}
	}
	r.Fence()
	// Cyclic over 3 nodes: each worker owns 7 points, shipped as a sparse
	// point list in one frame.
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for n := 1; n <= 2; n++ {
		if got := tc.executed[n].Load(); got != 7 {
			t.Errorf("worker %d executed %d points, want 7", n, got)
		}
		if len(tc.slices[n]) != 1 || !tc.slices[n][0].Slice.Domain.Sparse() || tc.slices[n][0].Slice.Domain.Volume() != 7 {
			t.Errorf("worker %d descriptors %+v, want one sparse 7-point slice", n, tc.slices[n])
		}
	}
}

// A slice whose answer adds up to just over MaxFrameSize comes back in two
// Result frames and completes.
func TestClusterSliceOverFrameSizeSplits(t *testing.T) {
	const points, each = 33, 32 << 10 // 33 × 32 KiB > wire.MaxFrameSize
	if points*each <= wire.MaxFrameSize {
		t.Fatal("test no longer exceeds MaxFrameSize")
	}
	fat := func(x int64) []byte { return bytes.Repeat([]byte{byte(x)}, each) }
	tc := newTestCluster(t, 2, func(task string, point domain.Point, args []byte) ([]byte, error) {
		return fat(point.X()), nil
	}, nil)
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 2, IndexLaunches: true,
		Transport: tc.meshes[0], Mapper: PinnedMapper{Node: 1}})
	defer r.Shutdown()
	id := r.MustRegisterTask("fat", func(ctx *Context) ([]byte, error) { return fat(ctx.Point.X()), nil })
	d := domain.Range1(0, points-1)
	fm, err := r.ExecuteIndex(&core.IndexLaunch{Task: id, Tag: "fat", Domain: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.Points() {
		f, _ := fm.At(p)
		if v, err := f.Get(); err != nil || !bytes.Equal(v, fat(p.X())) {
			t.Fatalf("point %v: %d bytes, %v", p, len(v), err)
		}
	}
	r.Fence()
	if got := tc.executed[1].Load(); got != points {
		t.Errorf("worker executed %d points, want %d (a split answer must not re-run bodies)", got, points)
	}
	if got := tc.meshes[0].Stats().Sends; got != 1 {
		t.Errorf("node 0 sent %d Exec frames, want 1", got)
	}
	if got := tc.meshes[1].Stats().Sends; got != 2 {
		t.Errorf("worker sent %d Result frames, want 2", got)
	}
}

// The i-th result of a slice settles the slice's i-th slot, so the worker's
// expansion order — Mesh.runSlice walks the request's domain with PointAt,
// a split request one sub-slice after another — must be node 0's issuance
// order (il.Each) restricted to the slice. A seeded property test over every
// shape the Exec codec carries: dense rects of 1–3 dims shipped whole,
// sparse launch domains, CyclicMapper's sparse slices, point lists left by
// re-mapping around a killed node, and requests and answers split across
// frames by payload size. Workers echo their point and payload, so a result
// in the wrong slot shows.
func TestClusterSliceOrderMatchesIssuanceOrder(t *testing.T) {
	echo := func(p domain.Point, args []byte) []byte { return append([]byte(p.String()+"|"), args...) }
	body := func(task string, p domain.Point, args []byte) ([]byte, error) { return echo(p, args), nil }
	for _, seed := range envSeeds(t, "RT_DIFF_SEEDS", diffSeeds) {
		rng := rand.New(rand.NewSource(seed))
		for c := 0; c < 6; c++ {
			fat := c == 5 // per-point payloads that split the request and the answer
			d, mapper := randomShape(rng), []Mapper{BlockMapper{}, CyclicMapper{}, PinnedMapper{Node: 1}}[rng.Intn(3)]
			if fat {
				d, mapper = domain.Range1(0, 29+rng.Int63n(10)), PinnedMapper{Node: 1}
			}
			argsOf := func(p domain.Point) []byte {
				if fat {
					return bytes.Repeat([]byte(p.String()), 16<<10)
				}
				return []byte(p.String())
			}
			cfg := Config{Nodes: 3, ProcsPerNode: 2, IndexLaunches: true, Mapper: mapper}
			if rng.Intn(3) == 0 {
				cfg.Fault = NewFaultInjector(seed).KillNode(2, d.Volume()/2)
			}
			t.Run(fmt.Sprintf("seed=%d/%d", seed, c), func(t *testing.T) {
				tc := newTestCluster(t, cfg.Nodes, body, nil)
				cfg.Transport = tc.meshes[0]
				r := MustNew(cfg)
				defer r.Shutdown()
				id := r.MustRegisterTask("echo", func(ctx *Context) ([]byte, error) { return echo(ctx.Point, ctx.Args), nil })
				il := &core.IndexLaunch{Task: id, Tag: "order", Domain: d}
				if c%2 == 0 || fat {
					il.PointArgs = argsOf
				} else {
					il.Args = []byte("shared")
				}
				fm, err := r.ExecuteIndex(il)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range d.Points() {
					f, err := fm.At(p)
					if err != nil {
						t.Fatal(err)
					}
					if v, err := f.Get(); err != nil || !bytes.Equal(v, echo(p, il.ArgsAt(p))) {
						t.Fatalf("point %v of %v (%T) got %.40q, %v", p, d, mapper, v, err)
					}
				}
				if err := r.FenceErr(); err != nil {
					t.Fatal(err)
				}
				if fat && (tc.meshes[0].Stats().Sends < 2 || tc.meshes[1].Stats().Sends < 2) {
					t.Errorf("fat slice crossed in %d request and %d answer frames, want both split",
						tc.meshes[0].Stats().Sends, tc.meshes[1].Stats().Sends)
				}
			})
		}
	}
}

// randomShape is a dense rect of 1–3 dims or a random subset of one.
func randomShape(rng *rand.Rand) domain.Domain {
	dim := 1 + rng.Intn(3)
	r := domain.Rect{Lo: domain.Point{Dim: dim}, Hi: domain.Point{Dim: dim}}
	for c := 0; c < dim; c++ {
		r.Lo.C[c] = rng.Int63n(5) - 2
		r.Hi.C[c] = r.Lo.C[c] + rng.Int63n([]int64{40, 7, 4}[dim-1])
	}
	d := domain.FromRect(r)
	if rng.Intn(2) == 0 {
		return d
	}
	pts := []domain.Point{r.Lo}
	d.Each(func(p domain.Point) bool {
		if rng.Intn(3) > 0 {
			pts = append(pts, p)
		}
		return true
	})
	return domain.FromPoints(pts)
}

// Config.Transport is checked the same way whichever kind it holds: a
// mesh, or the in-process engine (xport.New's assembly, or one endpoint of
// it for a node other than 0).
func TestClusterConfigValidation(t *testing.T) {
	tc := newTestCluster(t, 3, func(string, domain.Point, []byte) ([]byte, error) { return nil, nil }, nil)
	xp, err := xport.New(3, xport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xp.Close() })
	ep1, err := xport.NewEndpoint(xport.EndpointConfig{Self: 1, Nodes: 3, Fabric: xport.NewHub().Fabric(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep1.Close() })
	for _, k := range []struct {
		kind               string
		node0, notNodeZero Transport
	}{
		{"mesh", tc.meshes[0], tc.meshes[1]},
		{"xport", xp, ep1},
	} {
		cases := []struct {
			name string
			cfg  Config
		}{
			{"dcr", Config{Nodes: 3, ProcsPerNode: 1, DCR: true, Transport: k.node0}},
			{"node-count", Config{Nodes: 5, ProcsPerNode: 1, Transport: k.node0}},
			{"not-node-zero", Config{Nodes: 3, ProcsPerNode: 1, Transport: k.notNodeZero}},
		}
		for _, c := range cases {
			if _, err := New(c.cfg); err == nil {
				t.Fatalf("%s/%s: config accepted", k.kind, c.name)
			}
		}
		r, err := New(Config{Nodes: 3, ProcsPerNode: 1, Transport: k.node0})
		if err != nil {
			t.Fatalf("%s: valid config rejected: %v", k.kind, err)
		}
		r.Shutdown()
	}
}

func TestClusterPayloadRoundTrip(t *testing.T) {
	dense := Slice{Domain: domain.Range1(5, 25), Node: 2}
	b := wire.AppendSlicePayload(nil, 7, dense.Node, dense.Domain)
	idx, node, dom, err := wire.DecodeSlicePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 7 || node != 2 || !dom.Eq(dense.Domain) {
		t.Fatalf("dense round trip: %d %d %v", idx, node, dom)
	}

	sparse := Slice{Domain: domain.DiagonalSlice3(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(3, 3, 3)}, 4), Node: 1}
	b = wire.AppendSlicePayload(nil, 0, sparse.Node, sparse.Domain)
	_, _, dom, err = wire.DecodeSlicePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Eq(sparse.Domain) || !dom.Sparse() {
		t.Fatalf("sparse round trip: %v", dom)
	}

	for _, bad := range [][]byte{nil, {99}, {1, 0x80}, {2}} {
		if _, _, _, err := wire.DecodeSlicePayload(bad); err == nil {
			t.Fatalf("payload %v accepted", bad)
		}
	}
}

// dropLaterExecs is a fabric that loses every Exec frame but the first
// `keep` requests': a worker that answers its first request and never
// another.
type dropLaterExecs struct {
	wire.Fabric
	keep uint64
}

func (f dropLaterExecs) Send(dst int, fr *wire.Frame) error {
	if fr.Kind == wire.KindExec && fr.Key >= f.keep {
		return nil
	}
	return f.Fabric.Send(dst, fr)
}

// While a worker's Exec request is in flight, the slices issued for it
// wait in its outbox and leave together as its next request (Nagle's
// rule). L launches issued behind a held first request cost each worker
// two requests, not L, with the values and span tree of launches that ran
// one request each. A request the transport cannot deliver falls back
// every slice it carries and every slice queued behind it, for one failed
// call per worker.
func TestClusterLoopbackCoalescesWhileInFlight(t *testing.T) {
	const nodes, launches = 3, 6
	const workers = nodes - 1
	d := domain.Range1(0, 29)
	// cluster builds a traced runtime over a cluster whose workers park
	// every body until gate closes and close started[node] on their first.
	type cluster struct {
		r       *Runtime
		tc      *testCluster
		reg     *metrics.Registry
		started []chan struct{}
		shape   func() string
	}
	build := func(t *testing.T, gate <-chan struct{}, fabric func(wire.Fabric) wire.Fabric, timeout time.Duration) *cluster {
		c := &cluster{reg: metrics.NewRegistry(), started: make([]chan struct{}, nodes)}
		once := make([]sync.Once, nodes)
		c.tc = newTestCluster(t, nodes, squareBody, nil, func(node int, cfg *wire.MeshConfig) {
			if node == 0 {
				cfg.Metrics, cfg.ExecTimeout = c.reg, timeout
				cfg.Fabric = fabric(cfg.Fabric)
				return
			}
			c.started[node] = make(chan struct{})
			exec := cfg.Exec
			cfg.Exec = func(task string, p domain.Point, args []byte) ([]byte, error) {
				once[node].Do(func() { close(c.started[node]) })
				<-gate
				return exec(task, p, args)
			}
		})
		rec := obs.NewRecorder("rt", nodes, 1<<14)
		tracer, err := trace.New(trace.Config{HeadRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec.SetSink(tracer.Sink())
		c.r = MustNew(Config{Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true,
			Transport: c.tc.meshes[0], Profile: rec})
		t.Cleanup(c.r.Shutdown)
		root := obs.NewTraceRef(11)
		tracer.Begin(root, 1, "t", 0)
		c.r.SetTraceRef(root.Child(1))
		c.shape = func() string {
			if retained, _ := tracer.Finish(root, rec.Now(), trace.Outcome{}); !retained {
				t.Fatal("trace not retained")
			}
			got, ok := tracer.Get("1")
			if !ok {
				t.Fatal("trace not queryable")
			}
			return trace.Shape(got.Spans)
		}
		return c
	}
	launch := func(c *cluster) *core.IndexLaunch {
		return &core.IndexLaunch{Task: registerSquare(c.r), Tag: "sq", Domain: d}
	}
	issue := func(t *testing.T, c *cluster, il *core.IndexLaunch) *FutureMap {
		fm, err := c.r.ExecuteIndex(il)
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	counter := func(c *cluster, name string) int64 { return c.reg.Counter(name, "").Value() }
	asIs := func(f wire.Fabric) wire.Fabric { return f }
	open := make(chan struct{})
	close(open)

	// The per-launch path: each launch waited before the next is issued.
	ref := build(t, open, asIs, 10*time.Second)
	il := launch(ref)
	for l := 0; l < launches; l++ {
		wantSquares(t, issue(t, ref, il), d)
	}
	if err := ref.r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	if got := counter(ref, "wire_execs_total"); got != launches*workers {
		t.Fatalf("per-launch path sent %d Exec requests, want %d", got, launches*workers)
	}
	refShape := ref.shape()

	t.Run("coalesced", func(t *testing.T) {
		gate := make(chan struct{})
		c := build(t, gate, asIs, 10*time.Second)
		il := launch(c)
		fms := []*FutureMap{issue(t, c, il)}
		for n := 1; n < nodes; n++ {
			<-c.started[n]
		}
		for l := 1; l < launches; l++ {
			fms = append(fms, issue(t, c, il))
		}
		if got := counter(c, "wire_execs_total"); got != workers {
			close(gate)
			t.Fatalf("%d Exec requests in flight behind held first ones, want %d", got, workers)
		}
		close(gate)
		for _, fm := range fms {
			wantSquares(t, fm, d)
		}
		if err := c.r.FenceErr(); err != nil {
			t.Fatal(err)
		}
		if got := counter(c, "wire_execs_total"); got != 2*workers {
			t.Errorf("wire_execs_total = %d, want %d: the held request, then one for everything queued behind it", got, 2*workers)
		}
		if got := counter(c, "wire_exec_errors_total"); got != 0 {
			t.Errorf("wire_exec_errors_total = %d, want 0", got)
		}
		if got := c.tc.executed[1].Load() + c.tc.executed[2].Load(); got != launches*20 {
			t.Errorf("workers executed %d points, want %d", got, launches*20)
		}
		if st := c.r.Stats(); st.TasksExecuted != launches*30 || st.TasksFailed != 0 || st.Retries != 0 {
			t.Errorf("stats %+v", st)
		}
		if shape := c.shape(); shape != refShape {
			t.Errorf("span tree differs from the per-launch path's:\ncoalesced:  %s\nper-launch: %s", shape, refShape)
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		// Every worker answers its first request, held until the next
		// launches queue; the request carrying them is lost, and launches
		// issued while it is in flight queue behind it.
		gate := make(chan struct{})
		c := build(t, gate, func(f wire.Fabric) wire.Fabric { return dropLaterExecs{f, workers} }, 300*time.Millisecond)
		il := launch(c)
		fms := []*FutureMap{issue(t, c, il)}
		for n := 1; n < nodes; n++ {
			<-c.started[n]
		}
		for l := 1; l < 3; l++ {
			fms = append(fms, issue(t, c, il))
		}
		close(gate)
		for deadline := time.Now().Add(10 * time.Second); counter(c, "wire_execs_total") < 2*workers; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the queued slices never left as a second request")
			}
		}
		for l := 3; l < launches; l++ {
			fms = append(fms, issue(t, c, il))
		}
		for _, fm := range fms {
			wantSquares(t, fm, d)
		}
		if err := c.r.FenceTimeout(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := counter(c, "wire_execs_total"); got != 2*workers {
			t.Errorf("wire_execs_total = %d, want %d: the slices queued behind a lost request are not sent", got, 2*workers)
		}
		if got := counter(c, "wire_exec_errors_total"); got != workers {
			t.Errorf("wire_exec_errors_total = %d, want %d: one failed call per worker", got, workers)
		}
		if got := c.tc.executed[1].Load() + c.tc.executed[2].Load(); got != 20 {
			t.Errorf("workers executed %d points, want the first launch's 20", got)
		}
		if st := c.r.Stats(); st.TasksExecuted != launches*30 || st.TasksFailed != 0 || st.Retries != 0 {
			t.Errorf("stats %+v", st)
		}
	})
}
