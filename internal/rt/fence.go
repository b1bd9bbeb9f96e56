package rt

import (
	"context"
	"errors"
	"fmt"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// pendingTask is one outstanding launch a fence may wait on — an index
// launch's group, a single task, or a replay's terminal event — with enough
// identity to name its first unfinished task in timeout errors.
type pendingTask struct {
	ev    *Event
	fm    *FutureMap // an index launch's group, or a loop point's loop's
	name  string     // registered task name (or a synthetic label)
	tag   string
	point domain.Point // the task's point when fm is nil
}

// left counts the entry's unfinished tasks.
func (pt *pendingTask) left() int64 {
	switch {
	case pt.ev.Done():
		return 0
	case pt.fm != nil && pt.fm.done == pt.ev: // the whole group, not one loop point
		return pt.fm.left.Load()
	}
	return 1
}

// first names the entry's first unfinished point in issuance order.
func (pt *pendingTask) first() domain.Point {
	if pt.fm != nil {
		if n, p := pt.fm.unfinished(); n > 0 {
			return p
		}
	}
	return pt.point
}

func (r *Runtime) pruneOutstanding() {
	if len(r.outstanding) < 4096 {
		return
	}
	kept := r.outstanding[:0]
	for _, pt := range r.outstanding {
		if !pt.ev.Done() {
			kept = append(kept, pt)
		}
	}
	r.outstanding = kept
}

// fence is the one wait loop behind every Fence* entry point: it drains the
// outstanding list and waits for each launch in issue order — one wake-up
// per launch, not per point — timing the whole wait as one fence span. A
// wait is given up when cancel or stop closes — nil channels never do, so
// Fence and FenceErr wait unconditionally and ignore Shutdown — in which
// case the launches not yet waited for go back on the list and are returned
// as unfinished. errs are the poison errors of the launches that completed:
// each one's failed points joined in canonical point order.
func (r *Runtime) fence(cancel, stop <-chan struct{}) (errs []error, unfinished []pendingTask) {
	t0 := r.clk.now()
	r.issueMu.Lock()
	pend := make([]pendingTask, len(r.outstanding))
	copy(pend, r.outstanding)
	r.outstanding = r.outstanding[:0]
	r.issueMu.Unlock()
	for i, pt := range pend {
		if cancel == nil && stop == nil {
			pt.ev.Wait() // a plain receive parks cheaper than a select does
		} else if !pt.ev.Done() {
			select {
			case <-pt.ev.waitCh():
			case <-cancel:
			case <-stop:
			}
			// Done, not the select's verdict: the task may have completed
			// while the wait was being given up.
			if !pt.ev.Done() {
				unfinished = pend[i:]
				r.issueMu.Lock()
				r.outstanding = append(r.outstanding, unfinished...)
				r.issueMu.Unlock()
				break
			}
		}
		if err := pt.ev.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	if r.clk.on() {
		var ftc obs.TraceRef
		if r.clk.prof != nil {
			r.issueMu.Lock()
			ftc = r.nextLaunchTC()
			r.issueMu.Unlock()
		}
		r.clk.done(obs.StageFence, r.mx.FenceWait, ftc, 0, 0, "", "fence", domain.Point{}, t0, r.clk.now())
	}
	return errs, unfinished
}

// Fence blocks until every previously issued task has completed — an
// execution fence in Legion terms. Failed tasks are treated as completed;
// use FenceErr to observe their errors, or FenceTimeout / FenceContext to
// bound the wait on a hung task.
func (r *Runtime) Fence() { r.fence(nil, nil) }

// FenceErr blocks like Fence and returns the joined errors of every task
// that failed or was skipped since the previous fence, nil if all
// succeeded.
func (r *Runtime) FenceErr() error {
	errs, _ := r.fence(nil, nil)
	return r.wrapLiveness(errors.Join(errs...))
}

// wrapLiveness annotates a non-nil fence error with the node-liveness
// snapshot when some node is dead, so a failure report says at a glance
// whether the cluster was whole. Wrapping preserves errors.Is/As.
func (r *Runtime) wrapLiveness(err error) error {
	if err == nil {
		return nil
	}
	if summary, dead := r.liveness(); dead > 0 {
		return fmt.Errorf("%w (%s)", err, summary)
	}
	return err
}

// liveness renders the node-liveness snapshot fence errors embed and
// counts the dead nodes.
func (r *Runtime) liveness() (summary string, dead int) {
	r.issueMu.Lock()
	alive := len(r.aliveLocked())
	r.issueMu.Unlock()
	dead = r.cfg.Nodes - alive
	return fmt.Sprintf("liveness: %d alive, %d dead", alive, dead), dead
}

// FenceTimeout is FenceErr with a deadline: if some task has not completed
// within d, it returns an error naming the unfinished tasks (first by task
// name and point) instead of blocking forever. Unfinished tasks remain
// outstanding, so a later fence still waits for them.
func (r *Runtime) FenceTimeout(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return r.FenceContext(ctx)
}

// FenceContext is FenceErr bounded by a context. On cancellation the
// unfinished tasks are put back on the outstanding list and a descriptive
// error naming them — and snapshotting node liveness — is returned. A
// Shutdown during the wait abandons it the same way (a runtime being torn
// down must not hold fence callers for the full deadline), with ErrShutdown
// as the cause instead of the context error.
func (r *Runtime) FenceContext(ctx context.Context) error {
	errs, unfinished := r.fence(ctx.Done(), r.stop)
	if len(unfinished) == 0 {
		return r.wrapLiveness(errors.Join(errs...))
	}
	cause := ctx.Err()
	if cause == nil {
		// The context is live: the wait was abandoned by Shutdown, not by
		// the caller's deadline.
		cause = ErrShutdown
	}
	var n int64
	for i := range unfinished {
		n += unfinished[i].left()
	}
	first := &unfinished[0]
	summary, _ := r.liveness()
	return fmt.Errorf("rt: fence: %w; %d task(s) unfinished, first: task %q launch %q point %v; %s",
		cause, n, first.name, first.tag, first.first(), summary)
}
