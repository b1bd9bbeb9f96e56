package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"indexlaunch/internal/bench"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/safety"
	"indexlaunch/internal/sched"
	"indexlaunch/internal/trace"
	"indexlaunch/internal/wal"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Layer probes: timed calls into one layer's public functions, in process,
// with nothing else running. They do not depend on the workload; they are the
// per-operation cost a workload's counts multiply.

// probeBatches is how many equal batches a probe times; it reports the
// median batch, so one preemption does not set the number.
const probeBatches = 5

// perOp times batches of iters calls of fn and returns the median batch's
// cost per call in ns.
func perOp(iters int, fn func(i int) error) (float64, error) {
	var per []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	return median(per), nil
}

// probes lists every layer probe: the metric it reports (ns scaled down by
// scale into unit) and the function that measures ns per operation. scratch
// is a directory on the filesystem the durable workloads journal to.
var probes = []struct {
	name  string
	unit  string
	scale float64
	run   func(scratch string) (float64, error)
}{
	{"sched.overhead_us_per_job", "us", 1e3, func(string) (float64, error) { return probeSched() }},
	{"wal.probe_append_us.always", "us", 1e3, func(dir string) (float64, error) { return probeWAL(dir, wal.SyncAlways, 40) }},
	{"wal.probe_append_us.never", "us", 1e3, func(dir string) (float64, error) { return probeWAL(dir, wal.SyncNever, 4000) }},
	{"wire.encode_ns", "ns", 1, func(string) (float64, error) { return probeCodec(true) }},
	{"wire.decode_ns", "ns", 1, func(string) (float64, error) { return probeCodec(false) }},
	{"wire.exec_rtt_us", "us", 1e3, func(string) (float64, error) { return probeExecRTT() }},
	{"xport.broadcast_us", "us", 1e3, func(string) (float64, error) { return probeBroadcast() }},
	{"trace.span_ns", "ns", 1, func(string) (float64, error) { return probeSpan() }},
	{"safety.check_ns_per_point", "ns", 1, func(string) (float64, error) { return probeSafety() }},
}

// runProbes measures every layer probe.
func runProbes(scratch string) (map[string]metric, error) {
	out := map[string]metric{}
	for _, p := range probes {
		ns, err := p.run(scratch)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = number(ns/p.scale, p.unit, "lower")
	}
	return out, nil
}

// probeSched: Submit + Wait of a no-op job body on one executor — admission,
// queue, dispatch, fence and Recycle with no launch in between.
func probeSched() (float64, error) {
	s, err := sched.New(sched.Config{
		Executors: 1,
		Runtime:   rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true},
	})
	if err != nil {
		return 0, err
	}
	defer s.Shutdown()
	noop := func(*sched.JobContext, *rt.Runtime) error { return nil }
	return perOp(400, func(int) error {
		id, err := s.Submit(sched.JobSpec{Tenant: "probe", Run: noop})
		if err != nil {
			return err
		}
		return s.Wait(id)
	})
}

// probeWAL: Log.Append of a 128-byte record under one fsync policy.
func probeWAL(scratch string, pol wal.SyncPolicy, iters int) (float64, error) {
	dir := filepath.Join(scratch, "probe-wal-"+pol.String())
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Fsync: pol})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	rec := make([]byte, 128)
	return perOp(iters, func(int) error {
		_, err := l.Append(rec)
		return err
	})
}

// probeCodec: AppendFrame (encode) or DecodeFrame of a 256-byte data frame,
// the shape BENCH_wire.json uses.
func probeCodec(encode bool) (float64, error) {
	frame := &wire.Frame{
		Kind: wire.KindData, Dst: 5, Seq: 12345, Gen: 3, Key: 77,
		Route: []int{1, 3, 5}, Tag: "probe", Body: make([]byte, 256),
	}
	buf := wire.EncodeFrame(frame)
	if encode {
		return perOp(50000, func(int) error {
			buf = wire.AppendFrame(buf[:0], frame)
			return nil
		})
	}
	return perOp(50000, func(int) error {
		_, _, err := wire.DecodeFrame(buf)
		return err
	})
}

// probeExecRTT: Mesh.Exec of an echo task between two meshes over real
// localhost TCP, one request in flight.
func probeExecRTT() (float64, error) {
	worker, err := wire.NewTCP(wire.TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	launcher, err := wire.NewTCP(wire.TCPConfig{
		Self: 0, Listen: "127.0.0.1:0", Peers: map[int]string{1: worker.Addr()}, Epoch: 1,
	})
	if err != nil {
		_ = worker.Close()
		return 0, err
	}
	echo := func(task string, point domain.Point, args []byte) ([]byte, error) { return args, nil }
	var meshes []*wire.Mesh
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	for i, fab := range []wire.Fabric{launcher, worker} {
		m, err := wire.NewMesh(wire.MeshConfig{Self: i, Nodes: 2, Fabric: fab, Exec: echo})
		if err != nil {
			return 0, err
		}
		meshes = append(meshes, m)
	}
	args := make([]byte, 64)
	// Dial and handshake outside the timed loop.
	if _, err := meshes[0].Exec(1, "echo", domain.Pt1(0), args); err != nil {
		return 0, err
	}
	return perOp(1000, func(i int) error {
		_, err := meshes[0].Exec(1, "echo", domain.Pt1(int64(i)), args)
		return err
	})
}

// probeBroadcast: Transport.Broadcast of one payload to each of the three
// non-root nodes of a 4-node tree, fault-free.
func probeBroadcast() (float64, error) {
	t, err := xport.New(4, xport.Options{Deliver: func(int, any) {}})
	if err != nil {
		return 0, err
	}
	items := []xport.Item{{Dst: 1, Payload: 1}, {Dst: 2, Payload: 2}, {Dst: 3, Payload: 3}}
	return perOp(2000, func(int) error {
		t.Broadcast("probe", items)
		return nil
	})
}

// probeSpan: Recorder.SpanTC with the tracer's sink installed — what every
// traced point pays in idxserve -trace-sample.
func probeSpan() (float64, error) {
	tr, err := trace.New(trace.Config{HeadRate: 1, MaxRetained: 4})
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	rec := obs.NewRecorder("probe", 4, 4096)
	rec.SetSink(tr.Sink())
	const spansPerTrace = 1024
	return perOp(40*spansPerTrace, func(i int) error {
		root := obs.NewTraceRef(uint64(i/spansPerTrace) + 1)
		if i%spansPerTrace == 0 {
			tr.Begin(root, uint64(i), "probe", rec.Now())
		}
		now := rec.Now()
		rec.SpanTC(root.Child(uint64(i)), i&3, obs.StageExecute, "probe", "probe", domain.Pt1(int64(i)), now, now+1)
		if i%spansPerTrace == spansPerTrace-1 {
			tr.Finish(root, rec.Now(), trace.Outcome{})
		}
		return nil
	})
}

// safetyProbePoints is the launch-domain size the safety probe checks.
const safetyProbePoints = 10000

// probeSafety: safety.Analyze with the dynamic check forced, on a write
// through a disjoint partition, for the four functor shapes of the paper's
// Table 2; the cost per launch point, averaged over the shapes.
func probeSafety() (float64, error) {
	const n = safetyProbePoints
	fields := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
	tree, err := region.NewTree("probe", domain.Range1(0, n-1), fields)
	if err != nil {
		return 0, err
	}
	part, err := tree.PartitionEqual(tree.Root(), "points", n)
	if err != nil {
		return 0, err
	}
	d := domain.Range1(0, n-1)
	var total float64
	shapes := bench.Table2Functors(n)
	for _, shape := range shapes {
		args := []safety.Arg{{Partition: part, Functor: shape.Functor, Priv: privilege.ReadWrite}}
		ns, err := perOp(20, func(int) error {
			if res := safety.Analyze(d, args, safety.Options{ForceDynamic: true}); !res.Safe {
				return fmt.Errorf("%s judged unsafe: %s", shape.Label, res.Reason)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += ns / n
	}
	return total / float64(len(shapes)), nil
}
