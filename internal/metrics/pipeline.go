package metrics

// Pipeline is the canonical metric set of the runtime pipeline that
// internal/rt registers, its stage labels matching the span schema of
// internal/obs. Every instrument is registered, even ones a run never
// increments, so the registered name set does not depend on the workload.
//
// Naming scheme: `idx_` for the runtime pipeline, `xport_` for the message
// transport, `_total` suffix on counters, `_ns` on nanosecond histograms.
// The aggregate `xport_*` counters here are the same families
// internal/xport registers — registration is idempotent, so a transport
// sharing the runtime's registry shares the runtime's counters, which is
// what lets rt.Stats read transport counts with no dual bookkeeping.
type Pipeline struct {
	// Issuance counters, one per rt.Stats field.
	LaunchCalls   *Counter
	SingleCalls   *Counter
	IndexLaunched *Counter
	Expanded      *Counter
	Fallbacks     *Counter

	// Execution counters.
	TasksExecuted *Counter
	TasksFailed   *Counter
	TasksSkipped  *Counter
	Retries       *Counter
	Panics        *Counter

	// Fault counters.
	NodeFailures *Counter
	Remapped     *Counter

	// Analysis counters.
	VersionQueries    *Counter
	DepEdges          *Counter
	DynamicCheckEvals *Counter
	TraceCaptures     *Counter
	TraceReplays      *Counter
	AnalysisSkipped   *Counter

	// Live state gauges: tasks issued but not completed, and task bodies
	// currently occupying a processor slot (the worker queue depth pair).
	InflightTasks *Gauge
	BusyProcs     *Gauge

	// Stage latencies, labeled by pipeline stage; LatIssue..LatExecute are
	// the pre-resolved per-stage instruments the hot paths record into.
	StageLatency  *HistogramVec
	LatIssue      *Histogram
	LatLogical    *Histogram
	LatDistribute *Histogram
	LatPhysical   *Histogram
	LatExecute    *Histogram

	// Incident latencies.
	FenceWait *Histogram
	CheckEval *Histogram

	// Message-transport aggregates (shared with internal/xport when the
	// transport uses the same registry).
	Sends            *Counter
	Retransmits      *Counter
	Drops            *Counter
	Dedups           *Counter
	Reparents        *Counter
	DirectBroadcasts *Counter
	TreeDepth        *Gauge
}

// PipelineStages are the label values of idx_stage_latency_ns, in pipeline
// order — the same first five stages as the obs span taxonomy.
var PipelineStages = []string{"issue", "logical", "distribute", "physical", "execute"}

// Shared transport family names: internal/xport registers these same
// families, so a transport given the runtime's registry shares the
// runtime's counters (registration is idempotent) and rt.Stats reads
// transport counts with no second bookkeeping path.
const (
	NameXportSends            = "xport_sends_total"
	NameXportRetransmits      = "xport_retransmits_total"
	NameXportDrops            = "xport_drops_total"
	NameXportDedups           = "xport_dedups_total"
	NameXportReparents        = "xport_reparents_total"
	NameXportDirectBroadcasts = "xport_direct_broadcasts_total"
	NameXportTreeDepth        = "xport_tree_depth"
)

// NewPipeline registers the canonical pipeline metrics on r. Returns nil on
// a nil registry (the caller's disabled state).
func NewPipeline(r *Registry) *Pipeline {
	if r == nil {
		return nil
	}
	p := &Pipeline{
		LaunchCalls:   r.Counter("idx_launch_calls_total", "ExecuteIndex invocations"),
		SingleCalls:   r.Counter("idx_single_calls_total", "ExecuteSingle invocations"),
		IndexLaunched: r.Counter("idx_index_launched_total", "launches processed compactly as index launches"),
		Expanded:      r.Counter("idx_expanded_total", "launches expanded into individual tasks at issuance"),
		Fallbacks:     r.Counter("idx_fallbacks_total", "launches demoted to task loops by a failed safety check"),

		TasksExecuted: r.Counter("idx_tasks_executed_total", "completed point tasks"),
		TasksFailed:   r.Counter("idx_tasks_failed_total", "tasks failed terminally after retries"),
		TasksSkipped:  r.Counter("idx_tasks_skipped_total", "tasks skipped because an upstream task failed"),
		Retries:       r.Counter("idx_retries_total", "re-executions of failed task attempts"),
		Panics:        r.Counter("idx_panics_total", "task-body panics recovered by the executor"),

		NodeFailures: r.Counter("idx_node_failures_total", "simulated node kills"),
		Remapped:     r.Counter("idx_remapped_total", "point tasks re-mapped off a dead node at issuance"),

		VersionQueries:    r.Counter("idx_version_queries_total", "version-map dependence queries"),
		DepEdges:          r.Counter("idx_dep_edges_total", "dependence edges returned by the version map"),
		DynamicCheckEvals: r.Counter("idx_dynamic_check_evals_total", "projection-functor evaluations spent in dynamic safety checks"),
		TraceCaptures:     r.Counter("idx_trace_captures_total", "completed trace capture episodes"),
		TraceReplays:      r.Counter("idx_trace_replays_total", "completed trace replay episodes"),
		AnalysisSkipped:   r.Counter("idx_analysis_skipped_total", "point tasks whose analysis was satisfied from a trace template"),

		InflightTasks: r.Gauge("idx_inflight_tasks", "point tasks issued but not yet completed"),
		BusyProcs:     r.Gauge("idx_busy_procs", "task bodies currently occupying a processor slot"),

		StageLatency: r.HistogramVec("idx_stage_latency_ns", "pipeline stage latency in nanoseconds", "stage"),
		FenceWait:    r.Histogram("idx_fence_wait_ns", "execution fence wait in nanoseconds"),
		CheckEval:    r.Histogram("idx_check_eval_ns", "dynamic safety-check evaluation cost per launch in nanoseconds"),

		Sends:            r.Counter(NameXportSends, "hop-level message first transmissions"),
		Retransmits:      r.Counter(NameXportRetransmits, "ack-timeout-driven hop re-sends"),
		Drops:            r.Counter(NameXportDrops, "transmissions (data and acks) lost to chaos"),
		Dedups:           r.Counter(NameXportDedups, "received duplicates suppressed by sequence numbers"),
		Reparents:        r.Counter(NameXportReparents, "broadcast-tree orphan adoptions"),
		DirectBroadcasts: r.Counter(NameXportDirectBroadcasts, "broadcasts that abandoned a degraded tree for direct sends"),
		TreeDepth:        r.Gauge(NameXportTreeDepth, "fan-out depth (max hops) of the last planned broadcast"),
	}
	p.LatIssue = p.StageLatency.With("issue")
	p.LatLogical = p.StageLatency.With("logical")
	p.LatDistribute = p.StageLatency.With("distribute")
	p.LatPhysical = p.StageLatency.With("physical")
	p.LatExecute = p.StageLatency.With("execute")
	return p
}
