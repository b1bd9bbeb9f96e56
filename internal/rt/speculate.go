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
}

// taskRun bundles everything an execution attempt needs, so the original
// and the backup attempt run the same code path.
type taskRun struct {
	fn     TaskFn
	task   core.TaskID
	name   string
	tag    string
	point  domain.Point
	args   []byte
	prs    []PhysicalRegion
	fut    *Future
	spec   *specState // nil when speculation is off for this task
	spanID int64
	// tc is the point's span context (the physical span); the execute
	// span and retry/speculate marks are its children. Zero when the job
	// is untraced.
	tc obs.TraceRef
}

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

// armSpeculation starts the straggler watchdog for tr's original attempt
// on node orig. If the task is still running once the threshold elapses, a
// backup attempt launches on another healthy node.
func (r *Runtime) armSpeculation(tr *taskRun, orig int) {
	d := r.specDelay()
	if d <= 0 {
		return
	}
	go func() {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-tr.fut.ev.ch:
			return
		case <-r.stop:
			return
		case <-timer.C:
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
			prof.MarkTC(tr.tc.Child(tcSpecBackup), backup, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
		}
		r.mx.InflightTasks.Add(1)
		defer r.mx.InflightTasks.Add(-1)
		r.runAttempt(tr, backup, true, resume{})
	}()
}

// specLost accounts one attempt whose result was discarded because the
// competing attempt committed first.
func (r *Runtime) specLost(tr *taskRun, node int) {
	r.mx.SpecWasted.Inc()
	if prof := r.cfg.Profile; prof != nil {
		prof.MarkTC(tr.tc.Child(tcSpecLost), node, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
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
	// mesh); zero starts the clock once a slot is held.
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

// runAttempt executes one attempt chain (original or backup) of tr on node:
// slot acquisition, the retry ladder, and the commit race. Exactly one
// chain per task reaches commitAttempt's critical section.
func (r *Runtime) runAttempt(tr *taskRun, node int, backup bool, from resume) {
	slot := r.slots[node]
	slot <- struct{}{}
	r.mx.BusyProcs.Add(1)
	defer func() {
		r.mx.BusyProcs.Add(-1)
		<-slot
	}()
	if tr.lost() {
		// The other attempt finished while this one queued for a slot.
		r.specLost(tr, node)
		return
	}
	tExec := from.tExec
	if tExec == 0 {
		tExec = r.execNow()
	}
	var val []byte
	attempts, err := from.attempts, from.err
	retry := r.cfg.Retry
	for {
		if attempts > 0 {
			// The previous attempt failed: climb the ladder or give up.
			if attempts > retry.Max {
				break
			}
			if tr.lost() {
				// No point retrying a race already lost.
				r.specLost(tr, node)
				return
			}
			r.mx.Retries.Inc()
			if prof := r.cfg.Profile; prof != nil {
				prof.MarkTC(tr.tc.Child(uint64(tcRetryBase+attempts)), node, obs.StageRetry, tr.name, tr.tag, tr.point, prof.Now())
			}
			if d := retry.backoffFor(attempts); d > 0 && !r.sleepBackoff(d) {
				// Shutdown mid-ladder: give up on the retry and fail the
				// task with its last error now.
				break
			}
		}
		// A fresh Context per attempt: a failed attempt must not leak
		// buffered reductions or accessor state into its retry.
		ctx := &Context{Point: tr.point, Node: node, Task: tr.task, Args: tr.args,
			regions: tr.prs, cancel: tr.cancelCh()}
		val, err = r.execBody(tr, ctx, node, from.local)
		attempts++
		if err == nil {
			r.commitAttempt(tr, ctx, node, backup, val, nil, attempts, tExec)
			return
		}
	}
	r.commitAttempt(tr, nil, node, backup, val, err, attempts, tExec)
}

// commitAttempt is the single point where an attempt's outcome becomes the
// task's outcome: winner-takes-all under speculation, unconditional
// otherwise. Only the winner flushes reductions, records the execute span
// and completes the future.
func (r *Runtime) commitAttempt(tr *taskRun, ctx *Context, node int, backup bool,
	val []byte, err error, attempts int, tExec int64) {

	if tr.spec != nil {
		if !tr.spec.committed.CompareAndSwap(false, true) {
			r.specLost(tr, node)
			return
		}
		close(tr.spec.cancel)
	}
	if err == nil && ctx != nil && (len(ctx.reducers) > 0 || len(ctx.reducersI64) > 0) {
		r.reduceMu.Lock()
		ctx.flushReductions()
		r.reduceMu.Unlock()
	}
	r.mx.TasksExecuted.Inc()
	if err != nil {
		r.mx.TasksFailed.Inc()
		te := &TaskError{Task: tr.name, Tag: tr.tag, Point: tr.point, Node: node, Attempts: attempts, Err: err}
		if pe, ok := err.(*panicError); ok {
			te.PanicValue, te.Err = pe.value, nil
		}
		err = te
	}
	if r.clk.on() || r.specOn {
		// Record the execute span before completing, so a
		// fence-then-snapshot sees the span of every task it waited on.
		// Its histogram is observed here rather than by the clock:
		// speculation needs the latency baseline even when no metrics
		// registry is attached, and traced tasks leave their trace ID as
		// the bucket's exemplar.
		tEnd := r.clk.read()
		r.clk.done(obs.StageExecute, nil, tr.tc.Child(tcExecute), tr.spanID, node, tr.name, tr.tag, tr.point, tExec, tEnd)
		if r.clk.hist || r.specOn {
			r.mx.LatExecute.ObserveExemplar(tEnd-tExec, tr.tc.Trace)
		}
	}
	if backup {
		r.mx.SpecWon.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.MarkTC(tr.tc.Child(tcSpecWon), node, obs.StageSpeculate, tr.name, tr.tag, tr.point, prof.Now())
		}
	}
	tr.fut.complete(val, err)
}
