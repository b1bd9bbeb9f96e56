package main

import (
	"fmt"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/wire"
)

// runWireBench measures the wire layer: codec encode/decode throughput on a
// representative data frame, and the remote-execution round trip over the
// in-process loopback fabric versus real localhost TCP sockets — one point
// per round trip, and amortised over a 256-point slice, the unit cluster
// mode ships. The codec numbers are pure compute; the RTT numbers are wall
// clock — the CI gate diffs the snapshot with -warn, documenting the trend
// without blocking on scheduler noise.
func runWireBench(jsonDir string) error {
	frame := &wire.Frame{
		Kind:  wire.KindData,
		Src:   0,
		Dst:   5,
		Seq:   12345,
		Gen:   3,
		Key:   77,
		Route: []int{1, 3, 5},
		Tag:   "bench",
		Body:  make([]byte, 256),
	}
	for i := range frame.Body {
		frame.Body[i] = byte(i)
	}

	const codecIters = 200000
	buf := wire.EncodeFrame(frame)
	start := time.Now()
	for i := 0; i < codecIters; i++ {
		buf = wire.AppendFrame(buf[:0], frame)
	}
	encNS := float64(time.Since(start).Nanoseconds()) / codecIters

	start = time.Now()
	for i := 0; i < codecIters; i++ {
		if _, _, err := wire.DecodeFrame(buf); err != nil {
			return err
		}
	}
	decNS := float64(time.Since(start).Nanoseconds()) / codecIters

	loopNS, loopSliceNS, err := execRTT(func(self int, hub *wire.Hub) (wire.Fabric, error) {
		return hub.Fabric(self), nil
	})
	if err != nil {
		return err
	}
	tcpNS, tcpSliceNS, err := execRTT(nil)
	if err != nil {
		return err
	}

	snap := metrics.BenchSnapshot{
		Name:        "wire",
		CreatedUnix: time.Now().Unix(),
		Meta: map[string]string{
			"title": "Wire codec throughput and exec RTT, loopback vs localhost TCP (wall clock; diff with -warn)",
		},
		Values: []metrics.BenchValue{
			{Name: "wire/codec/encode_ns_per_frame", Value: encNS, Better: "lower"},
			{Name: "wire/codec/decode_ns_per_frame", Value: decNS, Better: "lower"},
			{Name: "wire/exec/loopback_ns_per_rtt", Value: loopNS, Better: "lower"},
			{Name: "wire/exec/tcp_ns_per_rtt", Value: tcpNS, Better: "lower"},
			{Name: "wire/exec/loopback_ns_per_point_slice256", Value: loopSliceNS, Better: "lower"},
			{Name: "wire/exec/tcp_ns_per_point_slice256", Value: tcpSliceNS, Better: "lower"},
		},
	}
	fmt.Printf("%-24s %8.0f ns encode  %8.0f ns decode (256B data frame)\n", "wire/codec", encNS, decNS)
	fmt.Printf("%-24s %8.0f ns loopback  %8.0f ns tcp (exec round trip)\n", "wire/exec", loopNS, tcpNS)
	fmt.Printf("%-24s %8.0f ns loopback  %8.0f ns tcp (per point, 256-point slice round trip)\n", "wire/exec/slice256", loopSliceNS, tcpSliceNS)
	if jsonDir != "" {
		path := jsonDir + "/BENCH_wire.json"
		if err := snap.WriteFile(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

// execRTT times the remote-execution round trip on a 2-node mesh: ns per
// single-point round trip, and ns per point of a 256-point slice round trip
// (one Exec frame, one Result frame, 256 bodies). mkFabric nil means
// localhost TCP; otherwise the fabrics come from a loopback hub.
func execRTT(mkFabric func(self int, hub *wire.Hub) (wire.Fabric, error)) (perRTT, perSlicePoint float64, err error) {
	echo := func(task string, point domain.Point, args []byte) ([]byte, error) {
		return args, nil
	}
	var fabs [2]wire.Fabric
	if mkFabric != nil {
		hub := wire.NewHub()
		for i := range fabs {
			f, err := mkFabric(i, hub)
			if err != nil {
				return 0, 0, err
			}
			fabs[i] = f
		}
	} else {
		worker, err := wire.NewTCP(wire.TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
		if err != nil {
			return 0, 0, err
		}
		launcher, err := wire.NewTCP(wire.TCPConfig{
			Self: 0, Listen: "127.0.0.1:0",
			Peers: map[int]string{1: worker.Addr()}, Epoch: 1,
		})
		if err != nil {
			return 0, 0, err
		}
		fabs[0], fabs[1] = launcher, worker
	}
	var meshes [2]*wire.Mesh
	for i := range meshes {
		m, err := wire.NewMesh(wire.MeshConfig{Self: i, Nodes: 2, Fabric: fabs[i], Exec: echo})
		if err != nil {
			return 0, 0, err
		}
		meshes[i] = m
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()
	args := make([]byte, 64)
	// Warm the connection (TCP dial + handshake) outside the timed loop.
	if _, err := meshes[0].Exec(1, "echo", domain.Pt1(0), args); err != nil {
		return 0, 0, err
	}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := meshes[0].Exec(1, "echo", domain.Pt1(int64(i)), args); err != nil {
			return 0, 0, err
		}
	}
	perRTT = float64(time.Since(start).Nanoseconds()) / iters

	const slicePoints, sliceIters = 256, 400
	slice := wire.ExecRequest{Task: "echo", Domain: domain.Range1(0, slicePoints-1), Args: args}
	start = time.Now()
	for i := 0; i < sliceIters; i++ {
		if _, err := meshes[0].ExecSlice(1, slice); err != nil {
			return 0, 0, err
		}
	}
	return perRTT, float64(time.Since(start).Nanoseconds()) / (sliceIters * slicePoints), nil
}
