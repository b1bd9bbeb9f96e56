package rt

import (
	"errors"
	"sync"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Distribution (paper §5) ends with a point → node assignment: the sharding
// functor's under DCR, else the slicing functor's slices, which node 0
// ships. In-process, each slice bound for another live node travels
// hop-by-hop through the reliable broadcast tree (an xport.Endpoint, under
// any ChaosPlan its transport was built with), and the launch proceeds once
// every slice is delivered exactly once; deliveries are not read back.
// Slices for node 0 or a dead node stay local and faultCheck re-maps their
// points, which keeps chaos runs byte-identical to fault-free ones. In
// cluster mode nothing is broadcast ahead of issuance: a region-free launch
// is filed by node (shipment) and a worker's run queues behind the one
// Exec request it may have in flight (pump); a launch with region
// requirements runs on node 0, where the region data lives. internal/sim
// models the cost difference.

// distribute is the third stage: it fixes how the launch's points map to
// nodes — by the slicing functor's slices when slice is set (shipped through
// the in-process transport first), by the sharding functor otherwise — and,
// with ship set, opens the shipment a region-free launch's points are filed
// into.
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

// file files a region-free launch's points by node, each node's as one
// block of ranks — a slice, or under DCR an invertible sharding functor's
// range — so node 0 pays per slice, not per point; a Fault plan, a dead
// node or a mapper that cannot name a node's points files point by point.
// It is the distribute stage, timed once. Caller holds issueMu.
func (r *Runtime) file(l *launch) {
	t := r.clk.now()
	if r.fileBySlice(l) {
		for _, s := range l.ship {
			if s == nil {
				continue
			}
			r.filed(l, s.node, s.lo, s.lo+s.n, t)
		}
		l.issued = l.points
		r.issuedTotal += int64(l.points)
	} else {
		l.dom.Each(func(p domain.Point) bool {
			owner, si := r.nodeOf(l, p)
			node := r.faultCheck(l.dom, p, owner)
			l.ship.add(l, node, si)
			r.filed(l, node, l.issued, l.issued+1, t)
			l.issued++
			return true
		})
	}
	l.distNS += r.clk.now() - t
}

// fileBySlice opens one run per node holding its block, or reports false
// with no run open. A slice must be the ranks from its first point to its
// last; under DCR the mapper must name each range. The blocks must tile the
// domain in order, on distinct live nodes. Caller holds issueMu.
func (r *Runtime) fileBySlice(l *launch) bool {
	inv, ok := r.mapper.(InvertibleMapper)
	ok = r.cfg.Fault == nil && (ok || l.sliced)
	var next int64
	take := func(node, index int, lo, hi int64) bool {
		if lo != next || hi < lo || (hi > lo && (r.dead[node] || l.ship[node] != nil)) {
			return false
		}
		if next = hi; hi > lo {
			s := l.ship.open(l, node, index)
			s.lo, s.n = int(lo), int(hi-lo)
		}
		return true
	}
	for i := 0; ok && l.sliced && i < len(l.slices); i++ {
		if d := l.slices[i].Domain; !d.Empty() {
			lo, n := rankOf(l.dom, d.PointAt(0)), d.Volume()
			ok = rankOf(l.dom, d.PointAt(n-1)) == lo+n-1 && take(clampNode(l.slices[i].Node, r.cfg.Nodes), i, lo, lo+n)
		}
	}
	for node := 0; ok && !l.sliced && node < r.cfg.Nodes; node++ {
		lo, hi, named := inv.ShardRange(l.dom, node, r.cfg.Nodes)
		ok = named && take(node, 0, lo, hi)
	}
	if !ok || next != l.dom.Volume() {
		clear(l.ship)
		return false
	}
	return true
}

// filed records slots lo..hi-1 of l, filed on node at t, as analyzed: by
// replay, or — with nothing to analyze — by zero-length physical spans and
// samples, so span shapes and histogram counts are the per-point path's.
// Caller holds issueMu.
func (r *Runtime) filed(l *launch, node, lo, hi int, t int64) {
	switch {
	case r.replaying():
		r.mx.AnalysisSkipped.Add(int64(hi - lo))
		return
	case l.fm.spans != nil:
		rows := l.fm.spans.Rows[lo:hi]
		for i := range rows {
			rows[i].PhysNode, rows[i].PhysStart = int32(node), t
		}
	case r.clk.prof != nil:
		for slot := lo; slot < hi; slot++ {
			p := l.fm.point(slot)
			r.clk.prof.SpanIDTC(l.tc.Point(p), 0, node, obs.StagePhysical, l.name, l.tag, p, t, t)
		}
	}
	r.clk.observe(r.mx.LatPhysical, 0, int64(hi-lo))
}

// shipment holds a region-free launch's points filed by node: one sliceRun
// per node that owns any, indexed by node.
type shipment []*sliceRun

// sliceRun is the part of one launch that one node runs: in cluster mode a
// worker's is the unit that crosses the network.
type sliceRun struct {
	node int
	// index is the slice the first point came from: a run filed as one
	// block ships that slice's own domain (a rect stays a rect), else a list.
	index int
	// The run's n points are future-map slots in launch order, the order of
	// any domain over them (all are lexicographic), so the worker's i-th
	// result is the i-th point's: lo..lo+n-1 for a run filed as one block,
	// else slots.
	lo, n int
	slots []int
	// h is the launch's share of its points' run state; run builds a
	// point's own only when it must.
	h *runHeader
	// deps are the launch-wide preconditions a replay gives
	// region-free points; the slice waits for them once.
	deps []*Event
	dom  domain.Domain // what a worker's run ships: its slice's domain, or a list
}

// open returns node's run, opening it from slice si with l's share of
// every point's run state.
func (sh shipment) open(l *launch, node, si int) *sliceRun {
	s := sh[node]
	if s == nil {
		s = &sliceRun{node: node, index: max(si, 0), deps: l.deps, h: l.runHeader}
		sh[node] = s
	}
	return s
}

// add files l's next point alone under the node issuance assigned it. si
// is the slice the point came from.
func (sh shipment) add(l *launch, node, si int) {
	s := sh.open(l, node, si)
	s.slots = append(s.slots, l.issued)
	s.n++
}

// slot returns the slice's i-th point's future-map slot.
func (s *sliceRun) slot(i int) int {
	if s.slots != nil {
		return s.slots[i]
	}
	return s.lo + i
}

// each calls fn with the slice's points lo..hi-1 and their indices, in
// order: a block walks the launch domain from its first point, a list
// looks each slot up.
func (s *sliceRun) each(lo, hi int, fn func(i int, p domain.Point)) {
	i := lo
	if s.slots == nil && lo < hi {
		s.h.fm.dom.EachFrom(int64(s.lo+lo), func(p domain.Point) bool {
			fn(i, p)
			i++
			return i < hi
		})
	}
	for ; i < hi; i++ {
		fn(i, s.h.fm.point(s.slots[i]))
	}
}

// run builds the run state of point i when it fails, is skipped or falls back.
func (s *sliceRun) run(i int) *taskRun {
	return &taskRun{runHeader: s.h, slot: s.slot(i), node: int32(s.node)}
}

// pointArgs returns the slice's points' own payloads in slice order, nil
// when they share the launch's.
func (s *sliceRun) pointArgs() [][]byte {
	if s.h.pointArgs == nil {
		return nil
	}
	args := make([][]byte, s.n)
	for i := range args {
		args[i] = s.h.pointArgs[s.slot(i)]
	}
	return args
}

// runShipment starts every slice the launch filed, in node order: a
// worker's (cluster mode) into the worker's outbox once its launch-wide
// preconditions have fired, any other as at most ProcsPerNode chunks on its
// node's run queue. It only enqueues: issuance never waits for execution or
// the network.
func (r *Runtime) runShipment(l *launch) {
	for _, s := range l.ship {
		if s == nil {
			continue
		}
		r.mx.InflightTasks.Add(int64(s.n))
		if r.cluster == nil || s.node == 0 {
			if len(s.deps) == 0 { // no closure to allocate
				r.runLocal(s)
			} else {
				afterAll(s.deps, func() { r.runLocal(s) })
			}
			continue
		}
		if s.slots == nil {
			s.dom = l.slices[s.index].Domain
		} else {
			pts := make([]domain.Point, 0, s.n)
			s.each(0, s.n, func(_ int, p domain.Point) { pts = append(pts, p) })
			s.dom = domain.FromPoints(pts)
		}
		afterAll(s.deps, func() { r.post(s) })
	}
}

// runLocal enqueues local slice s as at most ProcsPerNode chunks.
func (r *Runtime) runLocal(s *sliceRun) {
	size := (s.n + r.cfg.ProcsPerNode - 1) / r.cfg.ProcsPerNode
	for lo := 0; lo < s.n; lo += size {
		r.enqueue(runItem{node: s.node, chunk: s, lo: lo, hi: min(lo+size, s.n)})
	}
}

// outbox holds a worker's slices while its Exec request is out.
type outbox struct {
	mu    sync.Mutex
	queue []*sliceRun
	busy  bool // a pump goroutine serves the outbox
}

// take empties the outbox, marking it idle when there was nothing to take.
func (ob *outbox) take() []*sliceRun {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	batch := ob.queue
	ob.queue, ob.busy = nil, len(batch) > 0
	return batch
}

// post queues worker slice s, starting its worker's pump if none runs.
func (r *Runtime) post(s *sliceRun) {
	ob := &r.outboxes[s.node]
	ob.mu.Lock()
	ob.queue = append(ob.queue, s)
	start := !ob.busy
	ob.busy = true
	ob.mu.Unlock()
	if start {
		go r.pump(ob, s.node)
	}
}

// pump drains node's outbox, one request at a time, until it finds it
// empty: what queued while a request was out leaves the moment its answer
// lands, which then settles on a goroutine of its own (here, if nothing
// queued). What queued behind a request the transport could not deliver
// (ErrUnreachable) falls back unsent: a dead worker costs one ExecTimeout
// per burst of launches, not one per request.
func (r *Runtime) pump(ob *outbox, node int) {
	down := false
	for batch := ob.take(); len(batch) > 0; {
		var settle func()
		settle, down = r.sendBatch(node, batch, down)
		if batch = ob.take(); len(batch) == 0 {
			settle()
			return
		}
		go settle()
	}
}

// sendBatch sends a worker's queued slices, less any whose launch-wide
// precondition is poisoned (skipped), as one ExecSlice call — down, it
// fails them unsent. It reports whether the call failed with ErrUnreachable
// and returns what settles the answer: a point that ran commits, one that
// failed on the worker retries from attempt 2, an undelivered slice runs
// here — both through the node's run queue. All points share the execute
// clock's start: the request's hand-off to the mesh.
func (r *Runtime) sendBatch(node int, batch []*sliceRun, down bool) (settle func(), unreachable bool) {
	live, reqs := batch[:0], make([]wire.ExecRequest, 0, len(batch))
	for _, s := range batch {
		if cause := WaitAllErr(s.deps); cause != nil {
			r.skipSlice(s, 0, s.n, cause)
			continue
		}
		live = append(live, s)
		reqs = append(reqs, wire.ExecRequest{Task: s.h.name, Index: s.index, Domain: s.dom,
			Args: s.h.args, PointArgs: s.pointArgs()})
	}
	tExec, results, err := r.clk.now(), []wire.PointResult(nil), error(wire.ErrUnreachable)
	if !down {
		results, err = r.cluster.ExecSlice(node, reqs...)
	}
	return func() {
		for _, s := range live {
			var ok int64
			for i := range s.n {
				perr := err
				if err == nil {
					perr = results[i].Err
				}
				switch {
				case perr == nil:
					ok++
				case errors.Is(perr, wire.ErrUnreachable):
					r.enqueue(runItem{tr: s.run(i), node: s.node, from: resume{tExec: tExec, local: true}})
				default:
					r.enqueue(runItem{tr: s.run(i), node: s.node, from: resume{attempts: 1, err: perr, tExec: tExec}})
				}
			}
			if ok > 0 {
				r.settleSlice(s, 0, results[:s.n], ok, tExec, nil)
			}
			if err == nil {
				results = results[s.n:]
			}
		}
	}, !down && errors.Is(err, wire.ErrUnreachable)
}

// skipSlice skips points lo..hi-1 of s, one by one: a launch-wide
// precondition is poisoned.
func (r *Runtime) skipSlice(s *sliceRun, lo, hi int, cause error) {
	for i := lo; i < hi; i++ {
		r.skipPoint(s.run(i), s.node, cause)
	}
}

// runChunk runs points lo..hi-1 of local slice s back to back on the
// calling drainer's Context, with one clock read per point boundary, then
// commits the successes in one pass. A point whose body fails or panics
// enters its own retry ladder at attempt 2, like a point that failed on a
// worker.
func (r *Runtime) runChunk(s *sliceRun, lo, hi int, ctx *Context) {
	results, ends := make([]wire.PointResult, hi-lo), make([]int64, hi-lo)
	t0 := r.clk.now()
	start, ok := t0, int64(0)
	ctx.reset(domain.Point{}, s.node, s.h, nil, s.h.args)
	s.each(lo, hi, func(i int, p domain.Point) {
		ctx.Point, ctx.Args = p, s.h.argsAt(s.slot(i))
		res := &results[i-lo]
		if res.Val, res.Err = r.runBody(s.h.fn, ctx); res.Err != nil {
			r.enqueue(runItem{tr: s.run(i), node: s.node, from: resume{attempts: 1, err: res.Err, tExec: start}})
		} else {
			ok++
		}
		start = r.clk.now()
		ends[i-lo] = start
	})
	r.mx.BusyProcs.Add(-1)
	if ok > 0 {
		r.settleSlice(s, lo, results, ok, t0, ends)
	}
}

// settleSlice commits the ok points among results — the outcomes of
// the slice's points lo..lo+len(results)-1 — in one pass, the way commitAttempt commits
// one point: counters and gauges once; per point its execute span (a row of
// the launch's record when it is traced, an event span when it is only
// profiled), its latency sample and its value; one release of the launch's
// group. Point i ran from the previous point's end (t0 for the first) to
// ends[i]; with ends nil — a worker slice — every point spans t0 to one
// clock read here: the slice's round trip.
func (r *Runtime) settleSlice(s *sliceRun, lo int, results []wire.PointResult, ok, t0 int64, ends []int64) {
	r.mx.TasksExecuted.Add(ok)
	r.mx.InflightTasks.Add(-ok)
	h, fm := s.h, s.h.fm
	start, end := t0, t0
	if ends == nil {
		end = r.clk.now()
	}
	s.each(lo, lo+len(results), func(i int, p domain.Point) {
		res := &results[i-lo]
		if ends != nil {
			start, end = end, ends[i-lo]
		}
		if res.Err != nil {
			return
		}
		slot := s.slot(i)
		if row := fm.spanRow(slot); row != nil {
			row.ExecNode, row.ExecStart, row.ExecDur = int32(s.node), start, end-start
		} else if r.clk.prof != nil {
			r.clk.done(obs.StageExecute, nil, h.tc.Point(p).Child(tcExecute), h.firstID+int64(slot),
				s.node, h.name, h.tag, p, start, end)
		}
		if r.clk.hist {
			r.mx.LatExecute.ObserveExemplar(end-start, h.tc.Trace)
		}
		fm.settle(slot, res.Val, nil)
	})
	fm.release(ok)
}
