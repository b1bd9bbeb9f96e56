package rt

import (
	"errors"
	"slices"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Distribution (paper §5) ends with a point → node assignment. With DCR the
// sharding functor is the assignment — evaluated per point, memoizable, no
// communication. On the centralized path the slicing functor cuts the
// launch into per-node slices and node 0 ships them, which this file makes
// explicit in two ways:
//
//   - In-process, every slice bound for another node travels hop-by-hop
//     through the reliable broadcast tree (an xport.Endpoint), subject to
//     any ChaosPlan its transport was built with, and the launch proceeds
//     only once every slice has been delivered exactly once. Deliveries are
//     not read back: each is a slice node 0 already holds. Slices for node
//     0 itself, and slices whose destination is already dead at broadcast
//     time, never enter the transport: they stay local and the per-point
//     faultCheck re-maps them exactly as it did before the transport
//     existed, which is what keeps chaos runs byte-identical to fault-free
//     runs.
//   - In cluster mode nothing is broadcast ahead of issuance. A region-free
//     launch's points are filed under the worker that owns them (shipment)
//     and leave after issuance as one Exec request per worker, descriptor
//     included; a launch with region requirements runs on node 0, where the
//     region data lives, so its slices have nowhere to go.
//
// The cost difference between the two paths is modeled in internal/sim.

// distribute is the third stage: it fixes how the launch's points map to
// nodes — by the slicing functor's slices when slice is set (shipped through
// the in-process transport first), by the sharding functor otherwise — and,
// with ship set, opens the shipment its remote points are filed into.
// Caller holds issueMu.
func (r *Runtime) distribute(l *launch, slice, ship bool) {
	l.tDist = r.clk.now()
	if l.sliced = slice; slice {
		l.slices = r.mapper.Slice(l.dom, r.cfg.Nodes)
		if r.cluster == nil {
			r.shipSlices(l)
		}
	}
	if ship {
		l.ship = make(shipment, r.cfg.Nodes)
	}
	l.distNS = r.clk.now() - l.tDist
}

// nodeOf returns the node distribute assigned p to and the index of the
// slice it came from (-1 when the launch is sharded, or no slice holds p).
func (r *Runtime) nodeOf(l *launch, p domain.Point) (node, slice int) {
	if !l.sliced {
		return clampNode(r.mapper.ShardPoint(l.dom, p, r.cfg.Nodes), r.cfg.Nodes), -1
	}
	for i, s := range l.slices {
		if s.Domain.Contains(p) {
			return clampNode(s.Node, r.cfg.Nodes), i
		}
	}
	return 0, -1
}

func clampNode(n, nodes int) int {
	if n < 0 {
		return 0
	}
	if n >= nodes {
		return nodes - 1
	}
	return n
}

// shipSlices broadcasts the launch's slices through the in-process
// transport and returns once every destination has delivered (and acked).
// Deliveries carry nothing back: each is the slice l.slices already holds.
// Caller holds issueMu, which serializes broadcasts and makes the r.dead
// read safe. The launch's distribute span context rides the message headers
// so each hop records a child send span.
func (r *Runtime) shipSlices(l *launch) {
	items := make([]xport.Item, 0, len(l.slices))
	for i, s := range l.slices {
		// Node-0-local slices have nowhere to go; dead-destination slices
		// stay local so faultCheck re-maps their points.
		if node := clampNode(s.Node, r.cfg.Nodes); node != 0 && !r.dead[node] {
			items = append(items, xport.Item{Dst: node, Payload: wire.AppendSlicePayload(nil, i, s.Node, s.Domain)})
		}
	}
	if len(items) > 0 {
		r.xp.BroadcastTraced(l.tc.Child(tcDistribute), l.tag, items)
	}
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
	// slots are the points' future-map slots in launch order — which is the
	// iteration order of any domain over them (all are lexicographic), so
	// the worker's i-th result is slots[i]'s. args are their payloads when
	// the launch has per-point payloads.
	slots []int
	args  [][]byte
	// proto is the launch's share of every point's run state. A point gets
	// a run state of its own (run) only if it must: trs holds them when
	// issuance built them (profiling, a point-granularity trace episode).
	proto taskRun
	trs   []*taskRun
	// deps are the launch-wide preconditions some modes give region-free
	// points (trace and bulk-trace replay); the slice waits for them once.
	deps []*Event
}

// add files l's next point under the node issuance assigned it. si is the
// slice the point came from and unmoved whether faultCheck left it on that
// slice's node; tr is its run state if issuance built one.
func (sh shipment) add(l *launch, node, si int, unmoved bool, args []byte, tr *taskRun, deps []*Event) {
	s := sh[node]
	if s == nil {
		s = &sliceRun{node: node, index: max(si, 0), whole: true, proto: taskRun{
			fn: l.entry.fn, task: l.task, name: l.entry.name, tag: l.tag, args: args, fm: l.fm, tc: l.tc}}
		sh[node] = s
	}
	s.whole = s.whole && unmoved && si == s.index
	s.slots = append(s.slots, l.issued)
	if l.pointArgs {
		s.args = append(s.args, args)
	}
	if tr != nil {
		s.trs = append(s.trs, tr)
	}
	for _, d := range deps {
		if !slices.Contains(s.deps, d) {
			s.deps = append(s.deps, d)
		}
	}
}

// run returns the run state of the slice's i-th point, building it from the
// prototype unless it exists.
func (s *sliceRun) run(i int) *taskRun {
	if s.trs != nil {
		return s.trs[i]
	}
	tr := s.proto
	tr.slot = s.slots[i]
	tr.point = tr.fm.points[tr.slot]
	if s.args != nil {
		tr.args = s.args[i]
	}
	return &tr
}

// shipRemote starts every slice the launch collected, in node order. It only
// spawns: issuance never waits for the network.
func (r *Runtime) shipRemote(l *launch) {
	for _, s := range l.ship {
		if s == nil {
			continue
		}
		req := wire.ExecRequest{Task: l.entry.name, Index: s.index, Args: s.proto.args, PointArgs: s.args}
		if s.whole && l.slices[s.index].Domain.Volume() == int64(len(s.slots)) {
			req.Domain = l.slices[s.index].Domain
		} else {
			pts := make([]domain.Point, len(s.slots))
			for i, slot := range s.slots {
				pts[i] = l.fm.points[slot]
			}
			req.Domain = domain.FromPoints(pts)
		}
		r.mx.InflightTasks.Add(int64(len(s.slots)))
		go r.runSlice(s, req)
	}
}

// runSlice drives one slice: wait for the launch-wide preconditions, send
// the slice as one Exec request and settle every point from the answer. A
// point that ran commits; a point whose body failed on the worker enters
// its own retry ladder at attempt 2, and a slice the transport could not
// deliver (ErrUnreachable) runs its points here instead — both through the
// node's run queue. All points share the execute clock's start: the moment
// the slice is handed to the mesh.
func (r *Runtime) runSlice(s *sliceRun, req wire.ExecRequest) {
	if cause := WaitAllErr(s.deps); cause != nil && r.cfg.OnUpstreamFailure == SkipDependents {
		for i := range s.slots {
			r.skipPoint(s.run(i), s.node, cause)
		}
		return
	}
	tExec := r.clk.now()
	results, err := r.cluster.ExecSlice(s.node, req)
	var ok int64
	for i := range s.slots {
		perr := err
		if err == nil {
			perr = results[i].Err
		}
		switch {
		case perr == nil && s.trs != nil:
			r.commitAttempt(s.trs[i], s.node, outcome{val: results[i].Val, attempts: 1, tExec: tExec})
		case perr == nil:
			ok++
		case errors.Is(perr, wire.ErrUnreachable):
			r.enqueue(runItem{tr: s.run(i), node: s.node, from: resume{tExec: tExec, local: true}})
		default:
			r.enqueue(runItem{tr: s.run(i), node: s.node, from: resume{attempts: 1, err: perr, tExec: tExec}})
		}
	}
	if ok > 0 {
		r.settleSlice(s, results, ok, tExec)
	}
}

// settleSlice commits the ok points of a slice without run states in one
// pass, the way commitAttempt commits one point: counters and gauges once,
// one execute observation per point against one clock read (no profiler
// here — it would have built run states), each value into its slot, one
// release of the launch's group.
func (r *Runtime) settleSlice(s *sliceRun, results []wire.PointResult, ok int64, tExec int64) {
	r.mx.TasksExecuted.Add(ok)
	if r.clk.hist {
		lat := r.clk.read() - tExec
		for range ok {
			r.mx.LatExecute.ObserveExemplar(lat, s.proto.tc.Trace)
		}
	}
	r.mx.InflightTasks.Add(-ok)
	fm := s.proto.fm
	for i, slot := range s.slots {
		if results[i].Err == nil {
			fm.settle(slot, results[i].Val, nil)
		}
	}
	fm.release(ok)
}
