// Package sched is the multi-tenant job scheduler and admission layer above
// internal/rt: where the runtime executes one index-launch program, sched
// accepts many concurrent jobs — each tagged with a tenant, a priority
// class, a resource demand and an optional deadline — admits them through
// per-tenant quotas and token-bucket rate limits, orders them with a
// pluggable queue discipline (FIFO, strict priority, or weighted fair share
// with deficit counters), and runs them through a bounded pool of
// rt.Runtime executors over a shared simulated machine.
//
// The package is one deterministic state machine (core.go, queue.go,
// admission.go) with no clock of its own — logical time is the tick
// counter, moved by an advance op — whose apply(op) is the only way
// scheduler state changes, and three owners that feed it ops: the concurrent
// front end (sched.go, http.go), which applies them under a mutex, executes
// jobs on goroutines and emits obs events and metrics; journal replay
// (journal.go); and the virtual-time trace driver (trace.go). Every decision
// the state takes (enqueue, reject, admit, complete, preempt, expire, drain)
// is counted per tenant or, for the trace driver, appended to a decision log
// whose rendered form is canonical: for a fixed seeded arrival trace the log
// is byte-identical across runs, which is what lets the chaos/soak matrices
// extend to scheduling.
package sched

import (
	"errors"

	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
)

// JobID identifies a submitted job. IDs are assigned densely from 1 in
// submission order.
type JobID int64

// JobState is a job's position in its lifecycle.
type JobState uint8

const (
	// JobQueued jobs have been admitted into the queue and await dispatch.
	JobQueued JobState = iota
	// JobRunning jobs occupy an executor.
	JobRunning
	// JobDone jobs completed successfully.
	JobDone
	// JobFailed jobs completed with an error (body error, fence error,
	// panic, or deadline expiry).
	JobFailed
)

var jobStateNames = [...]string{"queued", "running", "done", "failed"}

// String renders the state name used in the HTTP API and /statusz.
func (s JobState) String() string {
	if int(s) < len(jobStateNames) {
		return jobStateNames[s]
	}
	return "unknown"
}

// RunFunc is a job body: an index-launch program issued against the
// executor runtime the scheduler leased to the job. The scheduler fences
// the runtime after Run returns, so bodies need not wait for their own
// launches; any task failure surfaces as the job's error. Bodies that want
// to cooperate with preemption should check ctx.Preempted between launches
// and return ErrPreempted — the job is then re-queued and re-run from the
// start, so bodies must tolerate re-execution.
type RunFunc func(ctx *JobContext, r *rt.Runtime) error

// ErrPreempted is returned by a cooperating job body to yield its executor
// to a higher-priority arrival. The scheduler re-queues the job.
var ErrPreempted = errors.New("sched: job preempted")

// ErrDeadlineExpired marks a job dropped at dispatch because it waited in
// queue past its deadline.
var ErrDeadlineExpired = errors.New("sched: deadline expired in queue")

// ErrSchedulerClosed marks a submission or queued job abandoned because the
// scheduler was shut down.
var ErrSchedulerClosed = errors.New("sched: scheduler closed")

// JobSpec describes one submitted job.
type JobSpec struct {
	// Tenant is the submitting tenant; empty defaults to "default".
	// Admission quotas, rate limits and fair-share weights key off it.
	Tenant string
	// Priority is the job's priority class; higher is more urgent. Only the
	// strict-priority discipline (and preemption) consult it.
	Priority int
	// Cost is the job's resource demand in abstract units (its deficit
	// charge under weighted fair share); values < 1 count as 1.
	Cost int64
	// Deadline bounds the queue wait in scheduler ticks; a job still queued
	// Deadline ticks after enqueue is dropped at dispatch with
	// ErrDeadlineExpired. 0 means no deadline.
	Deadline int64
	// Run is the job body. Trace-driven jobs (trace.go) carry no body.
	Run RunFunc
	// Request is the job's wire form when it arrived through the HTTP API.
	// It is what the journal persists: after a restart the body is rebuilt
	// from Request through the kind registry. Jobs submitted programmatically
	// (Request == nil) recover as scheduling state only.
	Request *SubmitRequest
}

// cost returns the spec's effective cost (>= 1).
func (s JobSpec) cost() int64 {
	if s.Cost < 1 {
		return 1
	}
	return s.Cost
}

// Job is one submitted job's bookkeeping. The state fields (ticks) are
// logical; the live fields (clock, state, done) belong to the concurrent
// scheduler and are guarded by its mutex.
type Job struct {
	ID   JobID
	Spec JobSpec

	// enqueueTick / admitTick stamp the state's logical clock; waited is
	// their difference at admission.
	enqueueTick int64
	admitTick   int64

	// attempts counts dispatches (1 on first run; preemption re-runs bump
	// it).
	attempts int

	// service is the job's service time in ticks for trace-driven jobs
	// (carried so the durable trace driver can rebuild its completion
	// schedule after recovery); 0 for live jobs.
	service int64

	// Live scheduler state. apply moves state through queued and running;
	// the live scheduler makes it terminal when it publishes the finish.
	// done is nil for a job no live scheduler waits on (the trace driver's,
	// or one retired during recovery).
	enqueueNS        int64
	state            JobState
	err              error
	done             chan struct{}
	pctx             *JobContext
	preemptRequested bool
	// submitSeq is the journal seq of the job's submit record (0 when not
	// durable): what an idempotency-key hit waits on before re-acknowledging
	// the ID.
	submitSeq uint64

	// tc is the job's root span context (zero when tracing is off);
	// preempted records that at least one attempt yielded, for the tail
	// sampler's outcome.
	tc        obs.TraceRef
	preempted bool
}

// JobContext is the per-attempt context a job body receives.
type JobContext struct {
	// Job and Tenant identify the attempt's job.
	Job    JobID
	Tenant string
	// Attempt is 1 for the first run and increments per preemption re-run.
	Attempt int
	// Trace is the job's root span context; zero when tracing is off.
	// Bodies that do their own instrumentation may derive children of it.
	Trace obs.TraceRef

	preempt chan struct{}
}

// Preempted returns a channel that closes when the scheduler asks this job
// to yield its executor to a higher-priority arrival. Bodies should check
// it between launches and return ErrPreempted; ignoring it is safe — the
// job simply runs to completion.
func (c *JobContext) Preempted() <-chan struct{} {
	if c == nil {
		return nil
	}
	return c.preempt
}
