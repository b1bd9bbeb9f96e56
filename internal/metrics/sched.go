package metrics

// Scheduler is the canonical metric set of the multi-tenant job scheduler
// (internal/sched), registered through the same nil-disabled registry
// pattern as Pipeline: NewScheduler(nil) returns nil, every record on the
// resulting nil instruments is a one-branch no-op, and the live scheduler —
// like internal/rt — keeps the counters in a private registry when no
// caller registry is attached, so its Stats/Status read-through always
// works.
//
// Naming scheme: `sched_` prefix, `_total` on counters, `_ns` on
// nanosecond histograms. Per-tenant families are labeled by `tenant`;
// rejections additionally carry the admission `reason` (queue-full,
// tenant-queue-full, rate-limited, no-capacity, draining).
type Scheduler struct {
	// Queue state gauges: jobs queued (global and per tenant) and jobs
	// currently occupying an executor.
	QueueDepth       *Gauge
	TenantQueueDepth *GaugeVec
	RunningJobs      *Gauge

	// Admission outcomes per tenant. Enqueued counts accepted submissions;
	// Admitted counts dispatches onto an executor; Rejected counts
	// backpressured submissions by reason.
	Enqueued *CounterVec
	Admitted *CounterVec
	Rejected *CounterVec

	// Completion outcomes per tenant.
	Completed *CounterVec
	Failed    *CounterVec

	// Incident counters: cooperative preemptions, deadline expiries in
	// queue, and drain requests.
	Preemptions *Counter
	Expired     *Counter
	Drains      *Counter

	// CapacityPermille is the admission capacity factor fed back from the
	// runtimes' node liveness, in thousandths (1000 = all nodes live).
	CapacityPermille *Gauge

	// Latency distributions: time from enqueue to dispatch, and from
	// enqueue to completion.
	QueueWait  *Histogram
	JobLatency *Histogram
}

// NewScheduler registers the canonical scheduler metrics on r. Returns nil
// on a nil registry (the caller's disabled state).
func NewScheduler(r *Registry) *Scheduler {
	if r == nil {
		return nil
	}
	return &Scheduler{
		QueueDepth:       r.Gauge("sched_queue_depth", "jobs queued across all tenants"),
		TenantQueueDepth: r.GaugeVec("sched_tenant_queue_depth", "jobs queued per tenant", "tenant"),
		RunningJobs:      r.Gauge("sched_running_jobs", "jobs currently occupying an executor"),

		Enqueued: r.CounterVec("sched_enqueued_total", "submissions accepted into the queue", "tenant"),
		Admitted: r.CounterVec("sched_admitted_total", "jobs dispatched onto an executor", "tenant"),
		Rejected: r.CounterVec("sched_rejected_total", "submissions rejected by admission control", "tenant", "reason"),

		Completed: r.CounterVec("sched_completed_total", "jobs completed successfully", "tenant"),
		Failed:    r.CounterVec("sched_failed_total", "jobs that finished with an error", "tenant"),

		Preemptions: r.Counter("sched_preemptions_total", "running jobs preempted back into the queue"),
		Expired:     r.Counter("sched_expired_total", "queued jobs dropped at dispatch because their deadline passed"),
		Drains:      r.Counter("sched_drains_total", "graceful drain requests"),

		CapacityPermille: r.Gauge("sched_capacity_permille", "admission capacity factor from node liveness, in thousandths"),

		QueueWait:  r.Histogram("sched_queue_wait_ns", "enqueue-to-dispatch wait in nanoseconds"),
		JobLatency: r.Histogram("sched_job_latency_ns", "enqueue-to-completion latency in nanoseconds"),
	}
}
