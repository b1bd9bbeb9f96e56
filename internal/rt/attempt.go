package rt

import (
	"sync/atomic"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/region"
)

// An attempt chain is one point task's run through the retry ladder: the
// first attempt, then re-executions on the same node while the body fails
// and RetryPolicy allows. A chain ends in exactly one commit, which makes
// its outcome the task's.

// runHeader is a launch's share of its points' run state: one per launch,
// pointed to by every taskRun of it (and by the launch itself while it
// issues).
type runHeader struct {
	rt   *Runtime
	fn   TaskFn
	task core.TaskID
	name string
	tag  string
	// reqs are the launch's region requirements as its points see them:
	// privilege, operator and fields, with each point bringing its own
	// regions.
	reqs []PhysicalRegion
	// args is the launch's by-value payload; pointArgs, set only when each
	// point has its own, holds them by slot.
	args      []byte
	pointArgs [][]byte
	// Where outcomes land: a single launch's future, an index launch's
	// point's slot in its future map, or both for a task loop's point.
	fut *Future
	fm  *FutureMap
	// tc is the launch's span context, zero when the job is untraced; a
	// point's context derives from it on demand. firstID is slot 0's
	// execute-span ID, 0 without a profiler.
	tc      obs.TraceRef
	firstID int64
	// gate, set only on an afterAll gate's header, is what its run does
	// instead of entering a run queue.
	gate func()
}

// argsAt returns slot's by-value payload.
func (h *runHeader) argsAt(slot int) []byte {
	if h.pointArgs != nil {
		return h.pointArgs[slot]
	}
	return h.args
}

// taskRun is one point's run state: an attempt chain's, and while the
// point waits, the countdown of its unfired preconditions. A region-free
// index launch's points have none: their slice settles their slots in one
// pass, and sliceRun.run builds one only for a point that must run alone.
type taskRun struct {
	*runHeader
	regions []*region.Region // one per requirement
	// ev is the point's own completion event when something can name it as
	// a dependence (see physical), else nil.
	ev   *Event
	slot int
	node int32
	// left counts the preconditions still unfired, plus one that issuance
	// holds until it has registered them all; cause is the first that
	// fired poisoned.
	left  atomic.Int32
	cause atomic.Pointer[Event]
}

// point returns the run's point: its slot's in the launch domain, the
// zero-based one of a single launch.
func (tr *taskRun) point() domain.Point {
	if tr.fm == nil {
		return domain.Pt1(0)
	}
	return tr.fm.point(tr.slot)
}

// spanID is the point's execute-span ID; read only with a profiler attached.
func (tr *taskRun) spanID() int64 { return tr.firstID + int64(tr.slot) }

// await parks tr on its preconditions, which are consumed here: it counts
// the unfired ones on itself and enters its node's run queue once the last
// fires — at once when none is pending.
func (tr *taskRun) await(deps []*Event) {
	tr.left.Store(int32(len(deps)) + 1)
	for _, d := range deps {
		d.park(tr)
	}
	tr.fired(nil)
}

// fired counts down one precondition, e (nil for issuance's own count),
// keeping it as the cause when it is the first to fire poisoned.
func (tr *taskRun) fired(e *Event) {
	if e != nil && e.err != nil {
		tr.cause.CompareAndSwap(nil, e)
	}
	if tr.left.Add(-1) != 0 {
		return
	}
	if tr.gate != nil {
		tr.gate()
		return
	}
	tr.rt.enqueue(runItem{tr: tr, node: int(tr.node)})
}

// resume says where an attempt chain picks up when it does not start
// fresh: what a slice's run — a local chunk, or a worker's answer —
// already established for one of its points. The zero value starts a fresh
// chain.
type resume struct {
	// attempts counts the attempts already made as part of the slice, and
	// err is the last one's failure.
	attempts int
	err      error
	// tExec is when the chain started executing (its turn in the chunk, or
	// the slice handed to the mesh); zero starts the clock once a drainer
	// runs the chain.
	tExec int64
	// local runs the bodies in this process: the point's node did not
	// answer.
	local bool
}

// outcome is what an attempt chain ended with, ready to commit.
type outcome struct {
	ctx      *Context // the succeeding attempt's; nil when the chain failed
	val      []byte
	err      error
	attempts int
	tExec    int64
}

// runAttempt executes tr's attempt chain on node — the retry ladder — on
// the calling drainer, whose Context each attempt resets.
func (r *Runtime) runAttempt(tr *taskRun, node int, from resume, ctx *Context) outcome {
	o := outcome{attempts: from.attempts, err: from.err, tExec: from.tExec}
	if o.tExec == 0 {
		o.tExec = r.clk.now()
	}
	retry, p := r.cfg.Retry, tr.point()
	for {
		if o.attempts > 0 {
			// The previous attempt failed: climb the ladder or give up.
			if o.attempts > retry.Max {
				return o
			}
			r.mx.Retries.Inc()
			if prof := r.cfg.Profile; prof != nil {
				prof.MarkTC(tr.tc.Point(p).Child(uint64(tcRetryBase+o.attempts)), node, obs.StageRetry, tr.name, tr.tag, p, prof.Now())
			}
			if d := retry.backoffFor(o.attempts); d > 0 && !r.sleepBackoff(d) {
				// Shutdown mid-ladder: give up on the retry and fail the
				// task with its last error now.
				return o
			}
		}
		// A reset Context per attempt: a failed attempt must not leak
		// buffered reductions or accessor state into its retry.
		ctx.reset(p, node, tr.runHeader, tr.regions, tr.argsAt(tr.slot))
		o.val, o.err = r.execBody(tr, ctx, node, from.local)
		o.attempts++
		if o.err == nil {
			o.ctx = ctx
			return o
		}
	}
}

// commitAttempt is the single point where a chain's outcome becomes the
// task's outcome: it flushes the succeeding attempt's reductions, records
// the execute span and finishes the task.
func (r *Runtime) commitAttempt(tr *taskRun, node int, o outcome) {
	if ctx := o.ctx; ctx != nil {
		ctx.flushReductions()
	}
	r.mx.TasksExecuted.Inc()
	err := o.err
	if err != nil {
		r.mx.TasksFailed.Inc()
		te := &TaskError{Task: tr.name, Tag: tr.tag, Point: tr.point(), Node: node, Attempts: o.attempts, Err: err}
		if pe, ok := err.(*panicError); ok {
			te.PanicValue, te.Err = pe.value, nil
		}
		err = te
	}
	if r.clk.on() {
		// Record the execute span — into the launch's span record when it
		// has one — before completing, so a fence-then-snapshot sees the
		// span of every task it waited on. Its histogram is observed here
		// rather than by the clock so traced tasks leave their trace ID as
		// the bucket's exemplar.
		tEnd := r.clk.read()
		if row := tr.fm.spanRow(tr.slot); row != nil {
			row.ExecNode, row.ExecStart, row.ExecDur = int32(node), o.tExec, tEnd-o.tExec
		} else {
			r.clk.done(obs.StageExecute, nil, tr.tc.Point(tr.point()).Child(tcExecute), tr.spanID(), node, tr.name, tr.tag, tr.point(), o.tExec, tEnd)
		}
		if r.clk.hist {
			r.mx.LatExecute.ObserveExemplar(tEnd-o.tExec, tr.tc.Trace)
		}
	}
	r.finish(tr, o.val, err)
}

// finish makes tr's outcome final. The in-flight gauge drops first, so a
// fence that observes the completion observes it too; then the point's own
// event fires (its dependents become runnable) and its future and its slot
// in a future map, whichever it has, settle.
func (r *Runtime) finish(tr *taskRun, val []byte, err error) {
	r.mx.InflightTasks.Add(-1)
	if tr.fut != nil {
		tr.fut.complete(val, err)
	} else if tr.ev != nil {
		tr.ev.Poison(err)
	}
	if tr.fm != nil {
		tr.fm.settle(tr.slot, val, err)
		tr.fm.release(1)
	}
}
