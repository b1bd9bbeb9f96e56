// Cluster transport: an index launch whose points execute across real TCP
// sockets. Three wire meshes — one per "process" — run in this one binary
// for demo convenience, but they talk exclusively through localhost
// sockets: frames are varint-framed, CRC-protected and ack-retransmitted
// exactly as they are between the real idxserve -cluster and idxnode
// daemons.
//
// Node 0 hosts the runtime: it ships each worker its slice of the launch as
// one Exec request — descriptor plus arguments — and the worker expands the
// slice into point tasks and answers with one result per point. Worker
// nodes never see the runtime — they serve the task kind from their own
// registry, exactly like cmd/idxnode.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/wire"
)

func main() {
	const nodes = 3

	// Worker "processes": each opens its own TCP listener and serves the
	// "square" task kind. Workers learn each other's addresses from the
	// launcher's handshake; only the launcher needs the table below.
	square := func(task string, point domain.Point, args []byte) ([]byte, error) {
		if task != "square" {
			return nil, fmt.Errorf("unknown task kind %q", task)
		}
		return rt.EncodeF64(float64(point.X() * point.X())), nil
	}
	peers := map[int]string{}
	meshes := make([]*wire.Mesh, nodes)
	for n := 1; n < nodes; n++ {
		fab, err := wire.NewTCP(wire.TCPConfig{Self: n, Listen: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		peers[n] = fab.Addr()
		meshes[n], err = wire.NewMesh(wire.MeshConfig{
			Self: n, Nodes: nodes, Fabric: fab, Exec: square,
			Deliver: func(node int, tag string, payload []byte) {
				// The descriptor of every slice this worker is sent
				// arrives here; cmd/idxnode records them.
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// The launcher: mesh node 0, dialing the worker table.
	fab0, err := wire.NewTCP(wire.TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: peers, Epoch: 1})
	if err != nil {
		log.Fatal(err)
	}
	meshes[0], err = wire.NewMesh(wire.MeshConfig{Self: 0, Nodes: nodes, Fabric: fab0})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, m := range meshes {
			_ = m.Close()
		}
	}()

	// A runtime whose machine is the mesh: node-0-local points run the
	// registered body in-process, remote points travel the sockets.
	runtime := rt.MustNew(rt.Config{
		Nodes: nodes, ProcsPerNode: 2, IndexLaunches: true,
		Transport: meshes[0],
	})
	defer runtime.Shutdown()

	id := runtime.MustRegisterTask("square", func(ctx *rt.Context) ([]byte, error) {
		return rt.EncodeF64(float64(ctx.Point.X() * ctx.Point.X())), nil
	})

	launch := core.MustForall("square", id, domain.Range1(0, 29))
	fm, err := runtime.ExecuteIndex(launch)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := fm.SumF64()
	if err != nil {
		log.Fatal(err)
	}

	// 30 points block-map over 3 nodes: 10 stay on node 0, 20 execute on
	// the workers over TCP. Σ x² for x = 0..29 is 8555.
	var frames int64
	for _, p := range runtime.Status().Peers {
		frames += p.MsgsSent + p.MsgsRecv
	}
	fmt.Printf("cluster completion: sum=%.0f (want 8555) over %d TCP nodes\n", sum, nodes)
	fmt.Printf("wire traffic: %d frames crossed localhost sockets\n", frames)
}
