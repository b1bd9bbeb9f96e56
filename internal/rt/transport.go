package rt

import (
	"fmt"

	"indexlaunch/internal/obs"
	"indexlaunch/internal/xport"
)

// This file wires the message transport (an xport.Endpoint) into the
// centralized (non-DCR) distribution path. The paper's §5 pipeline ships
// slices from node 0 through an O(log N) broadcast tree; with a transport
// attached, the runtime makes those messages explicit: every slice bound
// for a remote node travels hop-by-hop through the tree, subject to the
// configured ChaosPlan, and the launch proceeds only once every slice has
// been delivered exactly once. Slices for node 0 itself, and slices whose
// destination is already dead at broadcast time, never enter the transport:
// they stay local and the per-point faultCheck re-maps them exactly as it
// did before the transport existed, which is what keeps chaos runs
// byte-identical to fault-free runs.

// transportDeliver is the in-process transport's Deliver callback: decode
// the cluster payload — the bytes an idxnode worker would get — and, for a
// slice, slot it into the array the broadcast in flight reassembles
// (shipSlices installs it; the transport is built once in New but every
// broadcast has its own).
func (r *Runtime) transportDeliver(node int, payload any) {
	msg, err := DecodeClusterPayload(payload.([]byte))
	if err != nil {
		panic(fmt.Sprintf("rt: node %d received an undecodable payload from this process: %v", node, err))
	}
	if msg.Kind != "slice" {
		return
	}
	r.deliverMu.Lock()
	r.shipping[msg.Index] = msg.Slice
	r.deliverMu.Unlock()
}

// shipSlices broadcasts the launch's slices through the transport and
// returns them reassembled in original slice order. Caller holds issueMu
// (which serializes broadcasts and makes the r.dead read safe). Without a
// transport it is the identity. tc — the launch's distribute span context
// — rides the message headers so each hop records a child send span.
//
// Slices travel as encoded cluster payloads on both paths. In-process the
// deliveries land back here and are reassembled by slice index (they
// complete in arbitrary order under chaos). In cluster mode only launches
// with region requirements come through here: their bodies run on node 0,
// so every slice stays resident and the broadcast tells each worker what it
// owns. A region-free cluster launch skips the broadcast — its slices ship
// after issuance as Exec requests, descriptor included (cluster.go).
func (r *Runtime) shipSlices(tag string, slices []Slice, tc obs.TraceRef) []Slice {
	if r.xp == nil || len(slices) == 0 {
		return slices
	}
	out := make([]Slice, len(slices))
	items := make([]xport.Item, 0, len(slices))
	for i, s := range slices {
		node := clampNode(s.Node, r.cfg.Nodes)
		if node == 0 || r.dead[node] || r.cluster != nil {
			// Node-0-local slices have nowhere to go; dead-destination
			// slices stay local so faultCheck re-maps their points.
			out[i] = s
		}
		if node != 0 && !r.dead[node] {
			items = append(items, xport.Item{Dst: node, Payload: encodeSlicePayload(i, s)})
		}
	}
	if len(items) == 0 {
		return out
	}
	r.deliverMu.Lock()
	r.shipping = out
	r.deliverMu.Unlock()
	// Blocks until every destination delivered (and acked).
	r.xp.BroadcastTraced(tc, tag, items)
	return out
}
