package rt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/wire"
)

// Cluster mode: the same runtime pipeline, with the transport's far side in
// other OS processes. Config.Cluster hands the runtime a wire.Mesh whose
// node 0 is this process (the launching side — idxserve) and whose other
// nodes are idxnode worker daemons. Three things change, none of them
// semantics:
//
//   - A region-free index launch ships as slices, not points (paper §5,
//     distribution stage): issuance groups the launch's points by the node
//     they were assigned and sends each worker one Exec request — the slice
//     descriptor plus the arguments — so the shipment is the execution
//     trigger. The worker expands its slice into point tasks, runs the
//     bodies and answers with one result per point (shipRemote, runSlice).
//     ExecuteIndex does not wait for the network. Per-point semantics are
//     untouched: every point keeps its future, its counters, its execute
//     span, its retry ladder and its speculation watchdog; a point whose
//     body fails on the worker retries alone, through the single-point
//     Mesh.Exec the ladder, speculation backups and ExecuteSingle use.
//   - Tasks touching physical regions keep executing locally (region state
//     lives in this process); their launches' slice descriptors are
//     broadcast to the owning workers ahead of issuance (shipSlices) as the
//     workers' view of what they own. A worker the transport cannot reach
//     costs placement, not progress: its points run locally, and the health
//     detector handles the node's liveness separately.
//   - heartbeat probes, MarkDead/MarkAlive and resync broadcasts flow over
//     the mesh's sockets instead of the in-memory hub.
//
// Everything else — dependence analysis, retries, speculation, tracing —
// is unchanged, which is the point: the paper's index-launch pipeline is
// transport-agnostic. The runtime holds node 0's xport.Endpoint either way
// (the mesh's, or the in-process assembly's when Config.Cluster is nil) and
// ships the same encoded payloads through it.

// Cluster payload type discriminators (first byte of a broadcast body).
// The slice descriptor's layout lives in internal/wire, which embeds it in
// Exec requests.
const (
	clusterPayloadSlice  = wire.PayloadSlice
	clusterPayloadResync = 2
)

// ClusterMsg is the decoded form of one cluster broadcast payload — what an
// idxnode worker receives through its mesh Deliver callback.
type ClusterMsg struct {
	// Kind is "slice" or "resync".
	Kind string
	// Index is the slice's position in the launch's slice order (Kind
	// "slice").
	Index int
	// Slice is the shipped slice (Kind "slice").
	Slice Slice
	// Epoch is the announced resync epoch (Kind "resync").
	Epoch int64
}

// encodeSlicePayload serializes one slice shipment: the slice plus its
// index in the slicing functor's output, so deliveries reassemble into the
// original deterministic slice order.
func encodeSlicePayload(idx int, s Slice) []byte {
	return wire.AppendSlicePayload(nil, idx, s.Node, s.Domain)
}

// encodeResyncPayload serializes a rejoining node's new resync epoch.
func encodeResyncPayload(epoch int64) []byte {
	return binary.AppendVarint([]byte{clusterPayloadResync}, epoch)
}

// DecodeClusterPayload parses a mesh broadcast body back into its message.
// idxnode workers call this from their Deliver callback.
func DecodeClusterPayload(b []byte) (ClusterMsg, error) {
	if len(b) == 0 {
		return ClusterMsg{}, fmt.Errorf("rt: empty cluster payload")
	}
	switch b[0] {
	case clusterPayloadSlice:
		idx, node, dom, err := wire.DecodeSlicePayload(b)
		if err != nil {
			return ClusterMsg{}, fmt.Errorf("rt: slice payload: %w", err)
		}
		return ClusterMsg{Kind: "slice", Index: idx, Slice: Slice{Domain: dom, Node: node}}, nil
	case clusterPayloadResync:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return ClusterMsg{}, fmt.Errorf("rt: truncated resync payload")
		}
		return ClusterMsg{Kind: "resync", Epoch: v}, nil
	default:
		return ClusterMsg{}, fmt.Errorf("rt: unknown cluster payload type %d", b[0])
	}
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

// shipment collects, during issuance, the points of one region-free launch
// that belong to worker nodes: one sliceRun per node, indexed by node.
type shipment []*sliceRun

// sliceRun is the part of one launch that one worker runs: the unit that
// crosses the network.
type sliceRun struct {
	node int
	// index is the slicing functor's slice the first point came from; whole
	// stays true while every point came from that slice unmoved, so a run
	// that ends up with all of the slice's points ships the slice's own
	// domain (a dense rect stays a rect) instead of a point list.
	index int
	whole bool
	// trs are the points' run states in launch order — which is the
	// iteration order of any domain over them (all are lexicographic).
	trs []*taskRun
	// deps are the launch-wide preconditions some modes give region-free
	// points (trace and bulk-trace replay); the slice waits for them once.
	deps []*Event
}

// add files one analyzed point under the node issuance assigned it. si is
// the slice the point came from and unmoved whether faultCheck left it on
// that slice's node.
func (sh shipment) add(node, si int, unmoved bool, tr *taskRun, deps []*Event) {
	s := sh[node]
	if s == nil {
		s = &sliceRun{node: node, index: max(si, 0), whole: true}
		sh[node] = s
	}
	s.whole = s.whole && unmoved && si == s.index
	s.trs = append(s.trs, tr)
	for _, d := range deps {
		if !slices.Contains(s.deps, d) {
			s.deps = append(s.deps, d)
		}
	}
}

// shipRemote starts every collected slice, in node order. It only spawns:
// issuance never waits for the network.
func (r *Runtime) shipRemote(sh shipment, launch []Slice, pointArgs bool) {
	for _, s := range sh {
		if s == nil {
			continue
		}
		req := wire.ExecRequest{Task: s.trs[0].name, Index: s.index}
		if s.whole && launch[s.index].Domain.Volume() == int64(len(s.trs)) {
			req.Domain = launch[s.index].Domain
		} else {
			pts := make([]domain.Point, len(s.trs))
			for i, tr := range s.trs {
				pts[i] = tr.point
			}
			req.Domain = domain.FromPoints(pts)
		}
		if pointArgs {
			req.PointArgs = make([][]byte, len(s.trs))
			for i, tr := range s.trs {
				req.PointArgs[i] = tr.args
			}
		} else {
			req.Args = s.trs[0].args
		}
		r.mx.InflightTasks.Add(int64(len(s.trs)))
		go r.runSlice(s, req)
	}
}

// runSlice drives one slice: wait for the launch-wide preconditions, arm
// each point's straggler watchdog, send the slice as one Exec request and
// settle every point from the answer. A point that ran commits; a point
// whose body failed on the worker enters its own retry ladder at attempt 2;
// a slice the transport could not deliver (ErrUnreachable) runs its points
// here instead. All points share the execute clock's start: the moment the
// slice is handed to the mesh.
func (r *Runtime) runSlice(s *sliceRun, req wire.ExecRequest) {
	defer r.mx.InflightTasks.Add(-int64(len(s.trs)))
	if cause := WaitAllErr(s.deps); cause != nil && r.cfg.OnUpstreamFailure == SkipDependents {
		for _, tr := range s.trs {
			r.skipPoint(tr, s.node, cause)
		}
		return
	}
	if r.specOn {
		for _, tr := range s.trs {
			tr.spec = &specState{cancel: make(chan struct{})}
			r.armSpeculation(tr, s.node)
		}
	}
	timedExec := s.trs[0].timed || r.specOn
	var tExec int64
	if timedExec {
		tExec = r.nowNS()
	}
	results, err := r.cluster.ExecSlice(s.node, req)
	for i, tr := range s.trs {
		perr := err
		if err == nil {
			perr = results[i].Err
		}
		if perr == nil {
			r.commitAttempt(tr, nil, s.node, false, results[i].Val, nil, 1, tExec, timedExec)
			continue
		}
		from := resume{attempts: 1, err: perr, tExec: tExec}
		if errors.Is(perr, wire.ErrUnreachable) {
			from = resume{tExec: tExec, local: true}
		}
		r.mx.InflightTasks.Add(1)
		go func() {
			defer r.mx.InflightTasks.Add(-1)
			r.runAttempt(tr, s.node, false, from)
		}()
	}
}
