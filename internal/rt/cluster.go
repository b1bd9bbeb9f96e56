package rt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/wire"
)

// Cluster mode: the same runtime pipeline, with the transport's far side in
// other OS processes. Config.Cluster hands the runtime a wire.Mesh whose
// node 0 is this process (the launching side — idxserve) and whose other
// nodes are idxnode worker daemons. Three things change, none of them
// semantics:
//
//   - shipSlices broadcasts slice descriptors to the owning workers over
//     the mesh (same broadcast tree, same delivery guarantee) but keeps
//     every slice resident locally too: execution is driven point-by-point
//     from node 0, so the descriptors are the workers' view of what they
//     own, not the execution trigger.
//   - runAttempt executes a region-free point task's body on its owning
//     node via Mesh.Exec — the body actually runs in the worker process.
//     Tasks touching physical regions keep executing locally (region state
//     lives in this process); a transport-unreachable worker falls back to
//     local execution, trading locality for progress, and the health
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
const (
	clusterPayloadSlice  = 1
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
	buf := []byte{clusterPayloadSlice}
	buf = binary.AppendUvarint(buf, uint64(idx))
	buf = binary.AppendUvarint(buf, uint64(s.Node))
	return appendDomain(buf, s.Domain)
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
		d := wire.NewCursor(b[1:])
		idx := d.Int()
		node := d.Int()
		dom := decodeDomain(d)
		if d.Err() != nil {
			return ClusterMsg{}, fmt.Errorf("rt: slice payload: %w", d.Err())
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

// appendDomain serializes a domain losslessly: dense domains as their rect,
// sparse domains as their explicit point list.
func appendDomain(buf []byte, d domain.Domain) []byte {
	dim := d.Dim()
	if d.Sparse() {
		pts := d.Points()
		buf = append(buf, 1, byte(dim))
		buf = binary.AppendUvarint(buf, uint64(len(pts)))
		for _, p := range pts {
			for i := 0; i < dim; i++ {
				buf = binary.AppendVarint(buf, p.C[i])
			}
		}
		return buf
	}
	r := d.Bounds()
	buf = append(buf, 0, byte(dim))
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Lo.C[i])
	}
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Hi.C[i])
	}
	return buf
}

// decodeDomain parses appendDomain's encoding; a malformed field latches
// the cursor's error and yields the zero domain.
func decodeDomain(d *wire.Cursor) domain.Domain {
	sparse := d.U8() == 1
	dim := int(d.U8())
	if d.Err() != nil || dim < 1 || dim > domain.MaxDim {
		d.Fail()
		return domain.Domain{}
	}
	if sparse {
		n := d.Uvarint()
		if d.Err() != nil || n > uint64(d.Rest()) { // >=1 byte per coord
			d.Fail()
			return domain.Domain{}
		}
		pts := make([]domain.Point, 0, n)
		for i := uint64(0); i < n; i++ {
			var p domain.Point
			p.Dim = dim
			for c := 0; c < dim; c++ {
				p.C[c] = d.Varint()
			}
			pts = append(pts, p)
		}
		if d.Err() != nil {
			return domain.Domain{}
		}
		return domain.FromPoints(pts)
	}
	var lo, hi domain.Point
	lo.Dim, hi.Dim = dim, dim
	for c := 0; c < dim; c++ {
		lo.C[c] = d.Varint()
	}
	for c := 0; c < dim; c++ {
		hi.C[c] = d.Varint()
	}
	if d.Err() != nil {
		return domain.Domain{}
	}
	return domain.FromRect(domain.Rect{Lo: lo, Hi: hi})
}

// execBody runs one attempt of tr's body: locally by default, or — in
// cluster mode, for region-free tasks owned by a worker node — remotely in
// the owning idxnode process via Mesh.Exec. Remote task errors come back as
// errors and feed the normal retry ladder; a transport-level failure
// (ErrUnreachable) falls back to local execution so an unreachable worker
// degrades placement, not progress.
func (r *Runtime) execBody(tr *taskRun, ctx *Context, node int) ([]byte, error) {
	if r.cluster == nil || node == r.cluster.Self() || len(tr.prs) > 0 {
		return r.runBody(tr.fn, ctx)
	}
	val, err := r.cluster.Exec(node, tr.name, tr.point, tr.args)
	if err != nil && errors.Is(err, wire.ErrUnreachable) {
		return r.runBody(tr.fn, ctx)
	}
	return val, err
}
