package rt

import (
	"errors"

	"indexlaunch/internal/obs"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Cluster mode: the same runtime pipeline, with the transport's far side in
// other OS processes. Config.Transport hands the runtime a wire.Mesh whose
// node 0 is this process (the launching side — idxserve) and whose other
// nodes are idxnode worker daemons. One thing moves, semantics do not:
//
//   - A region-free index launch runs by slice on every path (paper §5,
//     distribution stage): issuance files its points under the node that
//     owns them, one slice per node. In cluster mode each worker's slice
//     rides an Exec request — descriptor plus arguments, so the shipment is
//     the execution trigger — which the worker expands, runs and answers
//     point by point. A worker has one request out at a time; slices issued
//     meanwhile queue in its outbox and leave together as the next one
//     (pump in distribute.go). Node 0's own slice runs as run-queue chunks.
//     ExecuteIndex does not wait for the network, and the answer settles
//     each slice's slots in one pass, execute spans included. Every point
//     keeps its future, counters, execute span and retry ladder: a point
//     whose body fails on the worker retries alone, through its node's run
//     queue and the single-point Mesh.Exec the ladder and ExecuteSingle use.
//   - Tasks touching physical regions execute locally (region state lives
//     in this process); a worker sees a slice only in an Exec it serves.
//
// A worker the transport cannot reach costs placement and time, not
// progress: its request fails with wire.ErrUnreachable once the mesh's
// ExecTimeout runs out, and its slices and those queued behind it run
// here. Nothing remembers the failure — the next launch ships to the
// worker again and pays the timeout again.
//
// Everything else — dependence analysis, retries, tracing — is unchanged,
// which is the point: the paper's index-launch pipeline is
// transport-agnostic. The runtime holds node 0's end of whichever transport
// Config.Transport names (or of the in-process one New builds), and derives
// remote execution from its being a mesh.

// Transport is node 0's end of a slice transport: the xport.Endpoint methods
// the runtime calls. *xport.Transport and *wire.Mesh both embed an
// xport.Endpoint, so either satisfies it.
type Transport interface {
	Nodes() int
	Self() int
	BroadcastTraced(tc obs.TraceRef, tag string, items []xport.Item)
	MarkDead(node int)
	Recycle()
	Shape() xport.TreeShape
	Stats() xport.Stats
}

// execBody runs one attempt of tr's body: locally by default, or — in
// cluster mode, for region-free tasks owned by a worker node — remotely in
// the owning idxnode process via Mesh.Exec. Remote task errors come back as
// errors and feed the normal retry ladder; a transport-level failure
// (ErrUnreachable), now or — local set — of the slice that carried the
// point, falls back to local execution so an unreachable worker degrades
// placement, not progress.
func (r *Runtime) execBody(tr *taskRun, ctx *Context, node int, local bool) ([]byte, error) {
	if local || r.cluster == nil || node == r.cluster.Self() || len(tr.regions) > 0 {
		return r.runBody(tr.fn, ctx)
	}
	val, err := r.cluster.Exec(node, tr.name, tr.point(), tr.argsAt(tr.slot))
	if err != nil && errors.Is(err, wire.ErrUnreachable) {
		return r.runBody(tr.fn, ctx)
	}
	return val, err
}
