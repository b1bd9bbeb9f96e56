package rt

import (
	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// An attempt chain is one point task's run through the retry ladder: the
// first attempt, then re-executions on the same node while the body fails
// and RetryPolicy allows. A chain ends in exactly one commit, which makes
// its outcome the task's.

// taskRun bundles everything an attempt chain needs. A region-free index
// launch's points have none: their slice settles their slots in one pass,
// and sliceRun.run builds one only for a point that must run alone.
type taskRun struct {
	fn    TaskFn
	task  core.TaskID
	name  string
	tag   string
	point domain.Point
	args  []byte
	prs   []PhysicalRegion
	// Where the outcome lands: a single launch's future, or the point's
	// slot in its index launch's future map — plus ev, the point's own
	// completion event, when something can name it as a dependence (see
	// physical).
	fut    *Future
	fm     *FutureMap
	slot   int
	ev     *Event
	spanID int64
	// tc is the launch's span context, zero when the job is untraced. The
	// point's context (its physical span's) derives from it on demand; the
	// execute span and retry marks are children of that.
	tc obs.TraceRef
}

// pointTC derives the point's span context.
func (tr *taskRun) pointTC() obs.TraceRef { return tr.tc.Point(tr.point) }

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
// the calling drainer.
func (r *Runtime) runAttempt(tr *taskRun, node int, from resume) outcome {
	o := outcome{attempts: from.attempts, err: from.err, tExec: from.tExec}
	if o.tExec == 0 {
		o.tExec = r.clk.now()
	}
	retry := r.cfg.Retry
	for {
		if o.attempts > 0 {
			// The previous attempt failed: climb the ladder or give up.
			if o.attempts > retry.Max {
				return o
			}
			r.mx.Retries.Inc()
			if prof := r.cfg.Profile; prof != nil {
				prof.MarkTC(tr.pointTC().Child(uint64(tcRetryBase+o.attempts)), node, obs.StageRetry, tr.name, tr.tag, tr.point, prof.Now())
			}
			if d := retry.backoffFor(o.attempts); d > 0 && !r.sleepBackoff(d) {
				// Shutdown mid-ladder: give up on the retry and fail the
				// task with its last error now.
				return o
			}
		}
		// A fresh Context per attempt: a failed attempt must not leak
		// buffered reductions or accessor state into its retry.
		ctx := &Context{Point: tr.point, Node: node, Task: tr.task, Args: tr.args,
			regions: tr.prs, rt: r}
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
		te := &TaskError{Task: tr.name, Tag: tr.tag, Point: tr.point, Node: node, Attempts: o.attempts, Err: err}
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
			r.clk.done(obs.StageExecute, nil, tr.pointTC().Child(tcExecute), tr.spanID, node, tr.name, tr.tag, tr.point, o.tExec, tEnd)
		}
		if r.clk.hist {
			r.mx.LatExecute.ObserveExemplar(tEnd-o.tExec, tr.tc.Trace)
		}
	}
	r.finish(tr, o.val, err)
}

// finish makes tr's outcome final. The in-flight gauge drops first, so a
// fence that observes the completion observes it too; then the point's own
// event fires (its dependents become runnable) and its future, or its slot
// in the launch's future map, settles.
func (r *Runtime) finish(tr *taskRun, val []byte, err error) {
	r.mx.InflightTasks.Add(-1)
	if tr.fut != nil {
		tr.fut.complete(val, err)
		return
	}
	if tr.ev != nil {
		tr.ev.Poison(err)
	}
	tr.fm.settle(tr.slot, val, err)
	tr.fm.release(1)
}
