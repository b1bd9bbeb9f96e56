package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// This file is the runtime's fault model. The paper's pipeline (§5) assumes
// every point task of an index launch completes; here that assumption is
// relaxed along three axes, in the spirit of task-based middlewares that
// treat worker failure and re-execution as scheduling concerns:
//
//   - task failure: a task body that returns an error or panics poisons its
//     completion event instead of crashing the process; dependents see the
//     poison through the same dependence edges that order execution and are
//     skipped: their futures fail with ErrUpstreamFailed wrapping the
//     upstream cause, and the skip cascades downstream.
//   - transient failure: Config.Retry re-executes a failed attempt on the
//     task's original node, with bounded exponential backoff. Reductions
//     buffer in private instances and flush only on success, so a failed
//     attempt leaves no partial folds behind.
//   - node failure: a FaultInjector (or Runtime.KillNode) marks a simulated
//     node dead at a deterministic issuance boundary. The dead node drains
//     work it already accepted but accepts no new tasks: every subsequently
//     issued point task the mapper assigns to it is re-mapped onto the
//     surviving nodes through the Mapper interface (the sharding functor
//     evaluated over the surviving-node count), on both the DCR and the
//     centralized path.
//
// All kill decisions happen under issueMu, in program order, so for a fixed
// seed and Config the fault counters in Stats are fully deterministic.

// ErrUpstreamFailed marks a task that was skipped because a task it depends
// on failed. Errors returned by Future.Get, FutureMap.WaitErr and FenceErr
// match it with errors.Is.
var ErrUpstreamFailed = errors.New("rt: upstream task failed")

// RetryPolicy bounds re-execution of failed point tasks.
type RetryPolicy struct {
	// Max is the number of re-executions allowed per task after the first
	// attempt; 0 disables retry.
	Max int
	// Backoff is the sleep before the first re-execution; each further
	// attempt doubles it. Zero retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubling; zero defaults to one minute. The cap
	// wins even when it is below Backoff.
	MaxBackoff time.Duration
}

// defaultMaxBackoff caps retry backoff when RetryPolicy.MaxBackoff is zero.
const defaultMaxBackoff = time.Minute

// backoffFor returns the sleep before re-execution attempt (1-based). The
// doubling is capped at MaxBackoff: large attempt counts saturate at the
// cap rather than overflowing the shift.
func (rp RetryPolicy) backoffFor(attempt int) time.Duration {
	if rp.Backoff <= 0 || attempt < 1 {
		return 0
	}
	max := rp.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	shift := uint(attempt - 1)
	if shift >= 63 {
		return max
	}
	d := rp.Backoff << shift
	if d <= 0 || d>>shift != rp.Backoff || d > max {
		return max
	}
	return d
}

// TaskError describes a terminally failed or skipped point task: which task
// variant, which launch point, which node, and why.
type TaskError struct {
	// Task is the registered task name; Tag is the launch tag.
	Task string
	Tag  string
	// Point is the task's launch point; Node the node it ran on.
	Point domain.Point
	Node  int
	// Attempts is how many executions were tried (0 for skipped tasks).
	Attempts int
	// PanicValue is the recovered panic value when the task panicked.
	PanicValue any
	// Err is the underlying cause: the body's returned error, or
	// ErrUpstreamFailed (wrapping the upstream error) for skipped tasks.
	Err error
}

// Error implements error.
func (e *TaskError) Error() string {
	switch {
	case e.PanicValue != nil:
		return fmt.Sprintf("rt: task %q point %v (node %d) panicked after %d attempt(s): %v",
			e.Task, e.Point, e.Node, e.Attempts, e.PanicValue)
	case e.Attempts == 0:
		return fmt.Sprintf("rt: task %q point %v (node %d) skipped: %v",
			e.Task, e.Point, e.Node, e.Err)
	default:
		return fmt.Sprintf("rt: task %q point %v (node %d) failed after %d attempt(s): %v",
			e.Task, e.Point, e.Node, e.Attempts, e.Err)
	}
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// FaultInjector schedules deterministic simulated node failures. Kills
// trigger at issuance boundaries: a kill with AfterIssued = n fires once the
// runtime has issued n point tasks (runtime-wide, in program order), so
// repeated runs of the same program with the same injector plan fail
// identically. An injector belongs to one Runtime; build a fresh one per
// run.
type FaultInjector struct {
	seed  int64
	rng   *rand.Rand
	kills []nodeKill
}

type nodeKill struct {
	node        int
	afterIssued int64
	applied     bool
}

// NewFaultInjector returns an injector whose random choices (KillRandomNode)
// derive from seed.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the injector's seed.
func (fi *FaultInjector) Seed() int64 { return fi.seed }

// KillNode schedules node to die once afterIssued point tasks have been
// issued. Returns the injector for chaining.
func (fi *FaultInjector) KillNode(node int, afterIssued int64) *FaultInjector {
	fi.kills = append(fi.kills, nodeKill{node: node, afterIssued: afterIssued})
	return fi
}

// KillRandomNode schedules a seeded-random node in [0, nodes) to die once
// afterIssued point tasks have been issued.
func (fi *FaultInjector) KillRandomNode(nodes int, afterIssued int64) *FaultInjector {
	return fi.KillNode(fi.rng.Intn(nodes), afterIssued)
}

// faultCheck is the per-point issuance hook: it re-maps the point off a dead
// node, counts the issue, and applies any injector kills whose threshold
// this issue reached. Caller holds issueMu; d is the launch domain (used by
// the sharding functor when re-mapping).
func (r *Runtime) faultCheck(d domain.Domain, p domain.Point, node int) int {
	if r.dead[node] {
		node = r.remapPoint(d, p, node)
		r.mx.Remapped.Inc()
		if prof := r.cfg.Profile; prof != nil {
			prof.Mark(node, obs.StageFault, "remap", "", p, prof.Now())
		}
	}
	r.issuedTotal++
	if fi := r.cfg.Fault; fi != nil {
		for i := range fi.kills {
			k := &fi.kills[i]
			if !k.applied && r.issuedTotal >= k.afterIssued {
				k.applied = true
				r.killNodeLocked(k.node)
			}
		}
	}
	return node
}

// remapPoint re-maps a point assigned to a dead node onto the surviving
// nodes: the mapper's sharding functor is evaluated over the surviving-node
// count and the result indexes the sorted list of live nodes. Caller holds
// issueMu.
func (r *Runtime) remapPoint(d domain.Domain, p domain.Point, orig int) int {
	alive := r.aliveLocked()
	if len(alive) == 0 {
		return orig // unreachable: the last live node cannot be killed
	}
	i := r.mapper.ShardPoint(d, p, len(alive))
	return alive[clampNode(i, len(alive))]
}

// killNodeLocked marks node dead, refusing out-of-range nodes, repeat
// kills, and killing the last surviving node. Caller holds issueMu.
func (r *Runtime) killNodeLocked(node int) bool {
	if node < 0 || node >= len(r.dead) || r.dead[node] || len(r.aliveLocked()) <= 1 {
		return false
	}
	r.dead[node] = true
	r.mx.NodeFailures.Inc()
	if r.xp != nil {
		// Future broadcasts re-parent the node's orphaned subtree onto
		// surviving ancestors (or fall back to direct node-0 sends).
		r.xp.MarkDead(node)
	}
	if prof := r.cfg.Profile; prof != nil {
		prof.Mark(node, obs.StageFault, "node-kill", "", domain.Point{}, prof.Now())
	}
	return true
}

// KillNode marks a simulated node dead at the next issuance boundary:
// tasks the node already accepted drain, but every point task issued
// afterwards is re-mapped to a surviving node. Returns false if the node is
// out of range, already dead, or the last one alive.
func (r *Runtime) KillNode(node int) bool {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return r.killNodeLocked(node)
}

// AliveNodes returns the ids of nodes still accepting work, in order.
func (r *Runtime) AliveNodes() []int {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return r.aliveLocked()
}

// aliveLocked lists the nodes not killed, in order. Caller holds issueMu.
func (r *Runtime) aliveLocked() []int {
	alive := make([]int, 0, len(r.dead))
	for n, dead := range r.dead {
		if !dead {
			alive = append(alive, n)
		}
	}
	return alive
}

// sleepBackoff waits out one retry backoff, returning false if Shutdown
// cancelled the wait.
func (r *Runtime) sleepBackoff(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-r.stop:
		return false
	}
}

// panicError carries a recovered task-body panic out of runBody.
type panicError struct{ value any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.value) }

// runBody executes one attempt of a task body, converting a panic into an
// error so a faulty task cannot take down the process.
func (r *Runtime) runBody(fn TaskFn, ctx *Context) (val []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.mx.Panics.Inc()
			err = &panicError{value: rec}
		}
	}()
	return fn(ctx)
}
