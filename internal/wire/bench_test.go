package wire

import (
	"fmt"
	"testing"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/xport"
)

func benchFrame() *Frame {
	return &Frame{
		Kind: KindData, Src: 0, Dst: 5, Seq: 12345, Gen: 2, Key: 17,
		TC:    obs.TraceRef{Trace: 1, Span: 2, Parent: 3},
		Route: []int{2, 5}, Tag: "bench", Body: make([]byte, 256),
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	f := benchFrame()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], f)
	}
	_ = buf
}

func BenchmarkDecodeFrame(b *testing.B) {
	enc := EncodeFrame(benchFrame())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func echo(task string, point domain.Point, args []byte) ([]byte, error) {
	return args, nil
}

// loopbackPair is a 2-node mesh over the deterministic in-memory fabric:
// codec both ways, reliable-link bookkeeping, no sockets. Node 1 echoes.
func loopbackPair(b *testing.B) *Mesh {
	hub := NewHub()
	m0, err := NewMesh(MeshConfig{Self: 0, Nodes: 2, Fabric: hub.Fabric(0)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m0.Close() })
	m1, err := NewMesh(MeshConfig{Self: 1, Nodes: 2, Fabric: hub.Fabric(1), Exec: echo})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m1.Close() })
	return m0
}

// tcpPair is the same 2-node mesh over real localhost sockets, its
// connection warmed outside the timed region.
func tcpPair(b *testing.B) *Mesh {
	worker, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	launcher, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: worker.Addr()}, Epoch: 1})
	if err != nil {
		b.Fatal(err)
	}
	rp := xport.RetransmitPolicy{Timeout: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}
	m0, err := NewMesh(MeshConfig{Self: 0, Nodes: 2, Fabric: launcher, Retransmit: rp, ExecTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m0.Close() })
	m1, err := NewMesh(MeshConfig{Self: 1, Nodes: 2, Fabric: worker, Retransmit: rp, Exec: echo})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m1.Close() })
	if _, err := m0.Exec(1, "echo", domain.Pt1(0), nil); err != nil {
		b.Fatal(err)
	}
	return m0
}

// benchExecRTT times one-point request/response round trips.
func benchExecRTT(b *testing.B, m0 *Mesh) {
	args := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m0.Exec(1, "echo", domain.Pt1(int64(i)), args); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExecSlice256 times the round trip carrying a 256-point slice: one
// Exec frame, 256 bodies on the peer, one Result frame. ns/op divided by
// 256 is the amortised per-point wire cost.
func benchExecSlice256(b *testing.B, m0 *Mesh) {
	slice := ExecRequest{Task: "echo", Domain: domain.Range1(0, 255), Args: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m0.ExecSlice(1, slice); err != nil {
			b.Fatal(err)
		}
	}
}

// The loopback rows are the round trip without sockets; the TCP rows minus
// them are the socket tax.
func BenchmarkLoopbackExecRTT(b *testing.B)      { benchExecRTT(b, loopbackPair(b)) }
func BenchmarkTCPExecRTT(b *testing.B)           { benchExecRTT(b, tcpPair(b)) }
func BenchmarkLoopbackExecSlice256(b *testing.B) { benchExecSlice256(b, loopbackPair(b)) }
func BenchmarkTCPExecSlice256(b *testing.B)      { benchExecSlice256(b, tcpPair(b)) }

func BenchmarkLoopbackBroadcast8(b *testing.B) {
	hub := NewHub()
	const n = 8
	meshes := make([]*Mesh, n)
	for i := 0; i < n; i++ {
		m, err := NewMesh(MeshConfig{Self: i, Nodes: n, Fabric: hub.Fabric(i),
			Deliver: func(node int, tag string, payload []byte) {}})
		if err != nil {
			b.Fatal(err)
		}
		meshes[i] = m
		defer m.Close()
	}
	items := make([]Item, 0, n-1)
	for d := 1; d < n; d++ {
		items = append(items, Item{Dst: d, Payload: make([]byte, 128)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meshes[0].Broadcast(fmt.Sprintf("b%d", i), items)
	}
}
