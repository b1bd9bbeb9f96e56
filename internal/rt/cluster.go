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
// nodes are idxnode worker daemons. Two things change, neither of them
// semantics:
//
//   - A region-free index launch ships as slices, not points (paper §5,
//     distribution stage): issuance groups the launch's points by the node
//     they were assigned and sends each worker one Exec request — the slice
//     descriptor plus the arguments — so the shipment is the execution
//     trigger. The worker expands its slice into point tasks, runs the
//     bodies and answers with one result per point (shipRemote and runSlice
//     in distribute.go). ExecuteIndex does not wait for the network, and
//     node 0 holds no per-point state for the slice beyond its future-map
//     slots: the answer settles them in one pass. Per-point semantics are
//     untouched: every point keeps its future (built when At asks), its
//     counters, its execute span and its retry ladder; a point whose body
//     fails on the worker retries alone — through its node's run queue and
//     the single-point Mesh.Exec the ladder and ExecuteSingle use.
//   - Tasks touching physical regions keep executing locally (region state
//     lives in this process), and their launches put nothing on the wire:
//     a worker sees a slice descriptor only inside an Exec request it
//     serves.
//
// A worker the transport cannot reach costs placement and time, not
// progress: its slice's request fails with wire.ErrUnreachable once the
// mesh's ExecTimeout runs out, and the slice's points run here instead.
// Nothing remembers the failure — the next launch ships to the worker
// again and pays the timeout again.
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
	if local || r.cluster == nil || node == r.cluster.Self() || len(tr.prs) > 0 {
		return r.runBody(tr.fn, ctx)
	}
	val, err := r.cluster.Exec(node, tr.name, tr.point, tr.args)
	if err != nil && errors.Is(err, wire.ErrUnreachable) {
		return r.runBody(tr.fn, ctx)
	}
	return val, err
}
