// Command idxnode is the cluster worker daemon: one process per mesh node.
// It opens a TCP wire fabric, joins the mesh rooted at the launcher
// (idxserve -cluster), registers the task kinds it can execute, and serves
// the slices the launcher ships it — each Exec request carries a slice's
// descriptor and arguments, the mesh expands it and calls the registered
// body once per point — plus descriptor broadcasts, until signalled.
//
//	idxnode -node 1 -nodes 3 -listen 127.0.0.1:7101
//	idxnode -node 2 -nodes 3 -listen 127.0.0.1:7102
//	idxserve -cluster 127.0.0.1:7101,127.0.0.1:7102 ...
//
// Workers do not need each other's addresses: the launcher's handshake
// Hello carries the full address table, and sibling links dial lazily when
// the broadcast tree first routes through them. With -addr the worker also
// serves /metrics (the wire_* families) and /statusz (its peer table).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/sched"
	"indexlaunch/internal/wire"
)

func main() {
	node := flag.Int("node", 0, "this worker's mesh node id (1..nodes-1; node 0 is the launcher)")
	nodes := flag.Int("nodes", 0, "total mesh size including the launcher")
	listen := flag.String("listen", "127.0.0.1:0", "wire listen address (host:port; :0 picks a port)")
	addr := flag.String("addr", "", "optionally serve /metrics and /statusz on this address")
	flag.Parse()

	if *node < 1 || *nodes < 2 || *node >= *nodes {
		fatal(fmt.Errorf("need -node in [1, nodes) and -nodes >= 2; got -node %d -nodes %d", *node, *nodes))
	}

	fab, err := wire.NewTCP(wire.TCPConfig{Self: *node, Listen: *listen})
	if err != nil {
		fatal(err)
	}

	reg := metrics.NewRegistry()
	w := &worker{self: *node}
	m, err := wire.NewMesh(wire.MeshConfig{
		Self:    *node,
		Nodes:   *nodes,
		Fabric:  fab,
		Metrics: reg,
		Deliver: w.deliver,
		Exec:    w.exec,
	})
	if err != nil {
		fatal(err)
	}
	w.mesh = m

	if *addr != "" {
		srv, err := metrics.Serve(*addr, reg, w.status)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("idxnode: metrics on http://%s\n", srv.Addr())
	}

	// The banner is parsed by the cluster smoke harness: keep the format.
	fmt.Printf("idxnode: node %d/%d listening on %s\n", *node, *nodes, fab.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Printf("idxnode: node %d stopping: %d points executed, %d slices received\n",
		*node, w.executed.Load(), w.slices.Load())
	_ = m.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idxnode:", err)
	os.Exit(1)
}

// worker is the daemon's execution state: the task-kind registry plus
// counters of what the launcher has shipped it.
type worker struct {
	self int
	mesh *wire.Mesh

	// executed counts points, not frames: the mesh calls exec once per
	// point of every slice it expands, from several goroutines. slices
	// counts the well-formed slice descriptors delivered.
	executed atomic.Int64
	slices   atomic.Int64
}

// exec serves one remote point execution. The kind registry is static: the
// synthetic spin task is the one workload the scheduler service launches
// remotely today; unknown kinds fail the attempt (the launcher's retry
// ladder and local fallback decide what happens next).
func (w *worker) exec(task string, point domain.Point, args []byte) ([]byte, error) {
	switch task {
	case sched.SyntheticTaskName:
		w.executed.Add(1)
		return sched.SyntheticEval(point.X()), nil
	default:
		return nil, fmt.Errorf("idxnode: node %d has no task kind %q", w.self, task)
	}
}

// deliver receives slice descriptors telling this worker what it owns —
// the one inside each Exec request it serves, or broadcast ahead of a
// launch whose bodies stay on the launcher.
func (w *worker) deliver(node int, tag string, payload []byte) {
	if _, _, _, err := wire.DecodeSlicePayload(payload); err != nil {
		fmt.Fprintf(os.Stderr, "idxnode: node %d: bad payload on %q: %v\n", w.self, tag, err)
		return
	}
	w.slices.Add(1)
}

// status is the /statusz payload: identity, counters and the live peer
// table with its socket byte counts.
func (w *worker) status() any {
	return struct {
		Node     int               `json:"node"`
		Nodes    int               `json:"nodes"`
		Executed int64             `json:"executed"`
		Slices   int64             `json:"slices"`
		Peers    []wire.PeerStatus `json:"peers,omitempty"`
	}{w.self, w.mesh.Nodes(), w.executed.Load(), w.slices.Load(), w.mesh.Peers()}
}
