package rt

import (
	"sync/atomic"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/health"
	"indexlaunch/internal/obs"
)

// Straggler speculation: a point task that runs far past the typical
// execution latency gets a backup launch on a different healthy node. The
// two attempts race; the first to finish commits — completes the future,
// flushes reductions, records the execute span — and the loser's result is
// discarded. Commit is a single compare-and-swap, so exactly one attempt
// ever flushes or completes, which keeps speculation safe for pure tasks
// and buffered reductions (a body that writes regions directly through RW
// accessors must not be speculated: both attempts would write).
//
// The threshold adapts: the runtime watches its own execute-latency
// histogram and speculates once a task exceeds Quantile(q) × Multiplier.
// Until MinSamples executions have been observed there is no baseline and
// nothing is speculated.

// SpeculationPolicy enables and tunes straggler re-launch.
type SpeculationPolicy struct {
	// Quantile is the execute-latency quantile (in (0, 1)) used as the
	// straggler baseline; 0 disables speculation.
	Quantile float64
	// Multiplier scales the baseline into the speculation threshold; 0
	// defaults to health.DefaultSpecMultiplier.
	Multiplier float64
	// MinSamples is the number of completed executions required before the
	// latency baseline is trusted; 0 defaults to 20.
	MinSamples int64
	// MinDelay floors the speculation threshold, so near-zero baselines
	// (trivial warm-up tasks) do not speculate everything; 0 defaults to
	// 1ms.
	MinDelay time.Duration
}

// Enabled reports whether the policy turns speculation on.
func (sp SpeculationPolicy) Enabled() bool { return sp.Quantile > 0 }

func (sp SpeculationPolicy) multiplier() float64 {
	if sp.Multiplier <= 0 {
		return health.DefaultSpecMultiplier
	}
	return sp.Multiplier
}

func (sp SpeculationPolicy) minSamples() int64 {
	if sp.MinSamples <= 0 {
		return 20
	}
	return sp.MinSamples
}

func (sp SpeculationPolicy) minDelay() time.Duration {
	if sp.MinDelay <= 0 {
		return time.Millisecond
	}
	return sp.MinDelay
}

// specState is the shared race state of one speculated point task.
type specState struct {
	committed atomic.Bool
	// cancel closes when an attempt commits, asking the other attempt's
	// body to stop (Context.Cancelled).
	cancel chan struct{}
	// watchdog is the pending backup launch, stopped by the commit.
	watchdog atomic.Pointer[time.Timer]
}

// taskRun bundles everything an execution attempt needs, so the original
// and the backup attempt run the same code path. A region-free point of an
// index launch that leaves node 0 in a slice has none unless it needs one
// (sliceRun.run): its outcome goes straight into its future-map slot.
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
	spec   *specState // nil when speculation is off for this task
	spanID int64
	// tc is the launch's span context, zero when the job is untraced. The
	// point's context (its physical span's) derives from it on demand; the
	// execute span and retry/speculate marks are children of that.
	tc obs.TraceRef
}

// pointTC derives the point's span context.
func (tr *taskRun) pointTC() obs.TraceRef { return tr.tc.Point(tr.point) }

// cancelCh returns the attempt-cancellation channel handed to task bodies
// (nil — blocks forever — when the task is not speculated).
func (tr *taskRun) cancelCh() <-chan struct{} {
	if tr.spec == nil {
		return nil
	}
	return tr.spec.cancel
}

// lost reports whether another attempt of this task already committed.
func (tr *taskRun) lost() bool { return tr.spec != nil && tr.spec.committed.Load() }

// specDelay computes the current straggler threshold, or 0 when the
// latency baseline has too few samples to trust.
func (r *Runtime) specDelay() time.Duration {
	sp := r.cfg.Speculate
	h := r.mx.LatExecute
	if h.Count() < sp.minSamples() {
		return 0
	}
	d := time.Duration(float64(h.Quantile(sp.Quantile)) * sp.multiplier())
	if d < sp.minDelay() {
		d = sp.minDelay()
	}
	return d
}

// pickBackupNode selects the node for a backup attempt: the first healthy
// node cyclically after the original. Reports false when no other healthy
// node exists.
func (r *Runtime) pickBackupNode(orig int) (int, bool) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	for k := 1; k < r.cfg.Nodes; k++ {
		n := (orig + k) % r.cfg.Nodes
		if r.dead[n] {
			continue
		}
		if r.hm != nil && r.hm.silenced[n] {
			continue
		}
		return n, true
	}
	return 0, false
}

// armSpeculation makes tr's attempts race and starts the straggler
// watchdog for its original attempt on node orig: a timer, not a goroutine,
// that the commit stops. If the task is still uncommitted once the
// threshold elapses, a backup attempt is enqueued on another healthy node.
func (r *Runtime) armSpeculation(tr *taskRun, orig int) {
	spec := &specState{cancel: make(chan struct{})}
	tr.spec = spec
	d := r.specDelay()
	if d <= 0 {
		return
	}
	spec.watchdog.Store(time.AfterFunc(d, func() {
		select {
		case <-r.stop:
			return
		default:
		}
		if tr.lost() {
			return
		}
		backup, ok := r.pickBackupNode(orig)
		if !ok {
			return
		}
		r.mx.SpecLaunched.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.MarkTC(tr.pointTC().Child(tcSpecBackup), backup, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
		}
		r.enqueue(runItem{tr: tr, node: backup, backup: true})
	}))
}

// specLost accounts one attempt whose result was discarded because the
// competing attempt committed first.
func (r *Runtime) specLost(tr *taskRun, node int) {
	r.mx.SpecWasted.Inc()
	if prof := r.cfg.Profile; prof != nil {
		prof.MarkTC(tr.pointTC().Child(tcSpecLost), node, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
	}
}

// resume says where an attempt chain picks up when it does not start
// fresh: what a slice's remote run (cluster mode) already established for
// one of its points. The zero value starts a fresh chain.
type resume struct {
	// attempts counts the attempts already made — remotely, as part of the
	// slice — and err is the last one's failure.
	attempts int
	err      error
	// tExec is when the chain started executing (the slice was handed to the
	// mesh); zero starts the clock once a drainer runs the chain.
	tExec int64
	// local runs the bodies in this process: the point's node did not
	// answer.
	local bool
}

// execNow reads the execute stage's clock: on whenever the stage clock is,
// and for straggler speculation, whose threshold is an execute latency.
func (r *Runtime) execNow() int64 {
	if r.clk.on() || r.specOn {
		return r.clk.read()
	}
	return 0
}

// outcome is what an attempt chain ended with, ready to commit.
type outcome struct {
	ctx      *Context // the succeeding attempt's; nil when the chain failed
	val      []byte
	err      error
	attempts int
	tExec    int64
}

// runAttempt executes one attempt chain (original or backup) of tr on node —
// the retry ladder — on the calling drainer. It reports false when the
// other attempt of a speculated task already committed, so there is nothing
// to commit.
func (r *Runtime) runAttempt(tr *taskRun, node int, from resume) (outcome, bool) {
	if tr.lost() {
		// The other attempt finished while this one was queued.
		return outcome{}, false
	}
	o := outcome{attempts: from.attempts, err: from.err, tExec: from.tExec}
	if o.tExec == 0 {
		o.tExec = r.execNow()
	}
	retry := r.cfg.Retry
	for {
		if o.attempts > 0 {
			// The previous attempt failed: climb the ladder or give up.
			if o.attempts > retry.Max {
				return o, true
			}
			if tr.lost() {
				// No point retrying a race already lost.
				return o, false
			}
			r.mx.Retries.Inc()
			if prof := r.cfg.Profile; prof != nil {
				prof.MarkTC(tr.pointTC().Child(uint64(tcRetryBase+o.attempts)), node, obs.StageRetry, tr.name, tr.tag, tr.point, prof.Now())
			}
			if d := retry.backoffFor(o.attempts); d > 0 && !r.sleepBackoff(d) {
				// Shutdown mid-ladder: give up on the retry and fail the
				// task with its last error now.
				return o, true
			}
		}
		// A fresh Context per attempt: a failed attempt must not leak
		// buffered reductions or accessor state into its retry.
		ctx := &Context{Point: tr.point, Node: node, Task: tr.task, Args: tr.args,
			regions: tr.prs, cancel: tr.cancelCh(), rt: r}
		o.val, o.err = r.execBody(tr, ctx, node, from.local)
		o.attempts++
		if o.err == nil {
			o.ctx = ctx
			return o, true
		}
	}
}

// commitAttempt is the single point where an attempt's outcome becomes the
// task's outcome: winner-takes-all under speculation, unconditional
// otherwise. Only the winner flushes reductions, records the execute span
// and finishes the task.
func (r *Runtime) commitAttempt(tr *taskRun, node int, backup bool, o outcome) {
	if tr.spec != nil {
		if !tr.spec.committed.CompareAndSwap(false, true) {
			r.specLost(tr, node)
			return
		}
		close(tr.spec.cancel)
		if t := tr.spec.watchdog.Load(); t != nil {
			t.Stop()
		}
	}
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
	if r.clk.on() || r.specOn {
		// Record the execute span — into the launch's span record when it
		// has one — before completing, so a fence-then-snapshot sees the
		// span of every task it waited on. Its histogram is observed here
		// rather than by the clock: speculation needs the latency baseline
		// even when no metrics registry is attached, and traced tasks leave
		// their trace ID as the bucket's exemplar.
		tEnd := r.clk.read()
		if row := tr.fm.spanRow(tr.slot); row != nil {
			row.ExecNode, row.ExecStart, row.ExecDur = int32(node), o.tExec, tEnd-o.tExec
		} else {
			r.clk.done(obs.StageExecute, nil, tr.pointTC().Child(tcExecute), tr.spanID, node, tr.name, tr.tag, tr.point, o.tExec, tEnd)
		}
		if r.clk.hist || r.specOn {
			r.mx.LatExecute.ObserveExemplar(tEnd-o.tExec, tr.tc.Trace)
		}
	}
	if backup {
		r.mx.SpecWon.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.MarkTC(tr.pointTC().Child(tcSpecWon), node, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
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
