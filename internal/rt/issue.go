package rt

import (
	"errors"
	"fmt"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// launch is one Execute call in flight — the O(1) object the paper's §5
// hands from stage to stage (issue → logical → distribute → physical, one
// file each). It lives while issueMu is held; the task runs it starts
// outlive it, sharing only its run header.
type launch struct {
	// The header's firstID is the first of the launch's block of
	// execute-span IDs, one per declared point. An index launch's points
	// finish into fm, its completion group; a single launch's one point
	// into fut, and a task loop's point into its slot of the loop's fm too.
	*runHeader
	dom    domain.Domain
	points int // declared point count

	// done fires once the whole launch has finished — the one thing fences
	// and replays wait on.
	done *Event

	// Distribution: whether the slicing functor (else the sharding functor)
	// places the points, its slices, and, for a region-free launch, the
	// points filed by node.
	sliced bool
	slices []Slice
	ship   shipment

	// Replay: the preconditions every point shares.
	// issued counts analyzed points; it is the next point's future-map slot.
	deps   []*Event
	issued int

	// Stage clock readings: launch and distribute start, and the time spent
	// per stage, so the four issuance-side stages partition the time under
	// issueMu.
	t0, tDist                 int64
	logicalNS, distNS, physNS int64
}

// ExecuteIndex issues an index launch and returns its future map. The
// launch is analyzed, distributed and executed asynchronously; Wait on the
// future map (or a fence) to observe completion. A launch the logical stage
// does not keep compact runs as ExecuteLoop's task loop.
func (r *Runtime) ExecuteIndex(il *core.IndexLaunch) (*FutureMap, error) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	r.mx.LaunchCalls.Inc()
	t0 := r.clk.now()
	if !r.logical(il) {
		return r.loop(il)
	}
	l, err := r.issue(il.Task, il.Tag, il.Domain, int(il.Parallelism()))
	if err != nil {
		return nil, err
	}
	l.t0, l.logicalNS = t0, r.clk.now()-t0 // its clock started with logical
	r.clk.done(obs.StageLogical, r.mx.LatLogical, l.tc.Child(tcLogical), 0, 0,
		l.name, l.tag, domain.Point{}, t0, t0+l.logicalNS)
	l.fm, l.args = newFutureMap(l.dom), il.Args
	l.done = l.fm.done
	if il.PointArgs != nil {
		l.pointArgs = make([][]byte, 0, len(l.fm.res))
		l.dom.Each(func(p domain.Point) bool { l.pointArgs = append(l.pointArgs, il.PointArgs(p)); return true })
	}
	if prof := r.clk.prof; prof != nil && l.tc.Valid() {
		// A traced launch's per-point spans go into one record.
		l.fm.prof = prof
		l.fm.spans = obs.NewLaunchSpans(l.tc, l.firstID, l.name, l.tag, l.dom)
	}
	l.reqs = launchReqs(il)
	r.ep.launchBegin(l, il, nil)
	// A region-free launch runs by slice, one per node.
	file := len(il.Requirements) == 0
	r.distribute(l, !r.cfg.DCR, file)
	if file {
		r.file(l)
	} else {
		err = il.Each(func(pt core.PointTask) bool {
			r.issuePoint(l, pt.Point, pt.Regions)
			return true
		})
	}
	// The points issued before a failed expansion are in flight: close the
	// launch either way, so they ship and a fence can wait for them.
	r.launchDone(l)
	if err != nil {
		return nil, err
	}
	return l.fm, nil
}

// ExecuteLoop issues il as Listing 3's task loop, the "No IDX" code: one
// single launch per point in domain order, placed where the sharding functor
// puts p in il.Domain and given il.ArgsAt(p), gathered into one future map.
func (r *Runtime) ExecuteLoop(il *core.IndexLaunch) (*FutureMap, error) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return r.loop(il)
}

// loop is ExecuteLoop's body, counted Expanded. Its points' launches settle
// their slots of its future map under its span IDs. Caller holds issueMu.
func (r *Runtime) loop(il *core.IndexLaunch) (fm *FutureMap, err error) {
	r.mx.Expanded.Inc()
	fm, reqs := newFutureMap(il.Domain), launchReqs(il)
	firstID, slot := r.clk.prof.NextIDs(len(fm.res)), 0
	xerr := il.Each(func(pt core.PointTask) bool {
		var l *launch
		if l, err = r.issue(il.Task, il.Tag, il.Domain, 0); err != nil {
			return false
		}
		l.fm, l.issued, l.firstID, l.reqs = fm, slot, firstID, reqs
		r.single(l, pt.Point, pt.Regions, il.ArgsAt(pt.Point))
		slot++
		return true
	})
	fm.release(int64(len(fm.res)-slot) + 1) // issuance's count and the slots never issued
	if err = errors.Join(err, xerr); err != nil {
		return nil, err
	}
	return fm, nil
}

// launchReqs returns il's requirements as its points see them, each point
// bringing its own regions.
func launchReqs(il *core.IndexLaunch) []PhysicalRegion {
	reqs := make([]PhysicalRegion, len(il.Requirements))
	for i, req := range il.Requirements {
		reqs[i] = PhysicalRegion{Priv: req.Priv, RedOp: req.RedOp, Fields: req.Fields}
	}
	return reqs
}

// SingleReq is a region requirement of a single-task launch: a concrete
// region rather than a ⟨partition, functor⟩ pair.
type SingleReq struct {
	Region *region.Region
	Priv   privilege.Privilege
	RedOp  privilege.OpID
	Fields []region.FieldID
}

// ExecuteSingle issues one task: a launch over a singleton domain.
func (r *Runtime) ExecuteSingle(tag string, task core.TaskID, reqs []SingleReq, args []byte) (*Future, error) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	r.mx.SingleCalls.Inc()
	l, err := r.issue(task, tag, domain.Range1(0, 0), 1)
	if err != nil {
		return nil, err
	}
	l.reqs = make([]PhysicalRegion, len(reqs))
	regions := make([]*region.Region, len(reqs))
	for i, req := range reqs {
		if req.Region == nil {
			return nil, fmt.Errorf("rt: single launch %q requirement %d has nil region", tag, i)
		}
		l.reqs[i] = PhysicalRegion{Priv: req.Priv, RedOp: req.RedOp, Fields: req.Fields}
		regions[i] = req.Region
	}
	r.single(l, domain.Pt1(0), regions, args)
	return l.fut, nil
}

// single takes an opened single launch — ExecuteSingle's, or a loop's point
// p — through the rest of the pipeline: no logical stage, and p placed by
// the sharding functor on both paths. Caller holds issueMu.
func (r *Runtime) single(l *launch, p domain.Point, regions []*region.Region, args []byte) {
	l.fut, l.args = newFuture(), args
	l.done = l.fut.ev
	r.ep.launchBegin(l, nil, regions)
	r.distribute(l, false, false)
	r.issuePoint(l, p, regions)
	r.launchDone(l)
}

// issue is the first stage: it opens the launch — the value the other
// stages are handed — under the next launch span context and starts its
// clock. Caller holds issueMu.
func (r *Runtime) issue(task core.TaskID, tag string, d domain.Domain, points int) (*launch, error) {
	if int(task) >= len(r.tasks) {
		return nil, fmt.Errorf("rt: launch %q names unregistered task %d", tag, task)
	}
	e := r.tasks[task]
	return &launch{runHeader: &runHeader{rt: r, fn: e.fn, task: task, name: e.name, tag: tag,
		tc: r.nextLaunchTC(), firstID: r.clk.prof.NextIDs(points)}, dom: d, points: points, t0: r.clk.now()}, nil
}

// issuePoint takes one point through the per-point half of the pipeline:
// placement (distribute), dependence analysis (physical), and the hand-off
// to its node's run queue once its preconditions fire, which the point
// consumes here. Caller holds issueMu.
func (r *Runtime) issuePoint(l *launch, p domain.Point, regions []*region.Region) {
	t := r.clk.now()
	owner, _ := r.nodeOf(l, p)
	node := r.faultCheck(l.dom, p, owner)
	l.distNS += r.clk.now() - t

	tr := &taskRun{runHeader: l.runHeader, regions: regions, slot: l.issued, node: int32(node)}
	deps := r.physical(l, tr, p)
	r.mx.InflightTasks.Add(1)
	tr.await(deps)
	l.issued++
}

// skipPoint finishes tr without running its body because a precondition is
// poisoned, cascading the failure downstream through the task's own event.
func (r *Runtime) skipPoint(tr *taskRun, node int, cause error) {
	r.mx.TasksSkipped.Inc()
	p := tr.point()
	if prof := r.cfg.Profile; prof != nil {
		prof.MarkTC(tr.tc.Point(p).Child(tcFaultSkip), node, obs.StageFault, tr.name, tr.tag, p, prof.Now())
	}
	r.finish(tr, nil, &TaskError{
		Task: tr.name, Tag: tr.tag, Point: p, Node: node,
		Err: fmt.Errorf("%w: %w", ErrUpstreamFailed, cause),
	})
}

// launchDone closes the launch: its slices start, the episode seals the
// launch's unit, issuance releases its count on the launch's group and the
// launch becomes one fence entry, and the clock
// records the two launch-level spans the per-point work accumulated into —
// distribute (sharding/slicing time over the whole launch) and issue (the
// residual launch bookkeeping, so the four issuance-side stages partition
// the time spent under issueMu). Caller holds issueMu.
func (r *Runtime) launchDone(l *launch) {
	if l.ship != nil {
		r.runShipment(l)
	}
	if r.ep != nil {
		r.ep.launchDone(l)
	}
	if l.fut == nil {
		// Issuance's count, plus the slots of declared points never issued
		// (an expansion that failed part-way).
		l.fm.release(int64(l.points-l.issued) + 1)
	}
	r.outstanding = append(r.outstanding, pendingTask{ev: l.done, fm: l.fm,
		name: l.name, tag: l.tag, point: l.dom.Bounds().Lo})
	r.pruneOutstanding()
	resid := max(r.clk.now()-l.t0-l.logicalNS-l.distNS-l.physNS, 0)
	r.clk.done(obs.StageDistribute, r.mx.LatDistribute, l.tc.Child(tcDistribute), 0, 0,
		l.name, l.tag, domain.Point{}, l.tDist, l.tDist+l.distNS)
	r.clk.done(obs.StageIssue, r.mx.LatIssue, l.tc, 0, 0,
		l.name, l.tag, domain.Point{}, l.t0, l.t0+resid)
}
