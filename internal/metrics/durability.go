package metrics

// Durability is the canonical metric set of the scheduler's write-ahead
// journal (internal/wal wired through internal/sched), registered with the
// same nil-disabled pattern as Pipeline and Scheduler: NewDurability(nil)
// returns nil and every record on the resulting nil instruments is a
// one-branch no-op.
//
// Naming scheme: `wal_` for live journal activity, `recover_` for
// startup-replay outcomes; `_total` on counters, `_ns` on nanosecond
// histograms.
type Durability struct {
	// AppendNS is how long the journal delayed each record's op: framing +
	// write for records nothing waits on, write through the end of the
	// commit wait for records an acknowledgement waits on. Only observed
	// when the scheduler is timed (a caller registry or profiler is
	// attached), like every timing histogram.
	AppendNS *Histogram
	// CommitWaitNS is how long each acknowledgement waited for its record
	// to become durable (its own or a shared group-commit fsync).
	CommitWaitNS *Histogram
	// CommitRecords is the number of records each group-commit fsync made
	// durable: the batch size the previous fsync's duration accumulated.
	CommitRecords *Histogram

	// Journal write activity.
	Appends       *Counter // records appended
	AppendedBytes *Counter // payload bytes appended
	Fsyncs        *Counter // fsync calls (appends, rotations, snapshots)
	Rotations     *Counter // segment rotations
	Snapshots     *Counter // snapshots written

	// SnapshotAgeOps gauges how many journal records the newest snapshot is
	// behind — the replay debt a crash right now would incur.
	SnapshotAgeOps *Gauge
	// Segments gauges live segment files (bounded by snapshot cadence).
	Segments *Gauge

	// Recovery outcomes, counted once per process at startup.
	Recoveries      *Counter // recoveries that found durable state
	ReplayedRecords *Counter // journal records replayed after snapshot load
	SnapshotLoads   *Counter // snapshots loaded
	TruncatedBytes  *Counter // torn-tail bytes discarded on open
	RequeuedJobs    *Counter // queued jobs restored into the queue
	ResumedJobs     *Counter // running jobs handed back to executors
}

// NewDurability registers the canonical durability metrics on r. Returns
// nil on a nil registry (the caller's disabled state).
func NewDurability(r *Registry) *Durability {
	if r == nil {
		return nil
	}
	return &Durability{
		AppendNS:      r.Histogram("wal_append_ns", "time the journal delayed a record's op (write, plus the commit wait when acknowledged) in nanoseconds"),
		CommitWaitNS:  r.Histogram("wal_commit_wait_ns", "time an acknowledgement waited for its journal record to be durable in nanoseconds"),
		CommitRecords: r.Histogram("wal_commit_records", "journal records made durable per group-commit fsync"),

		Appends:       r.Counter("wal_appends_total", "journal records appended"),
		AppendedBytes: r.Counter("wal_appended_bytes_total", "journal payload bytes appended"),
		Fsyncs:        r.Counter("wal_fsyncs_total", "journal fsync calls"),
		Rotations:     r.Counter("wal_segment_rotations_total", "journal segment rotations"),
		Snapshots:     r.Counter("wal_snapshots_total", "journal snapshots written"),

		SnapshotAgeOps: r.Gauge("wal_snapshot_age_ops", "journal records appended since the newest snapshot"),
		Segments:       r.Gauge("wal_segments", "live journal segment files"),

		Recoveries:      r.Counter("recover_total", "startup recoveries that found durable scheduler state"),
		ReplayedRecords: r.Counter("recover_replayed_records_total", "journal records replayed at startup"),
		SnapshotLoads:   r.Counter("recover_snapshot_loads_total", "snapshots loaded at startup"),
		TruncatedBytes:  r.Counter("recover_truncated_bytes_total", "torn-tail bytes discarded at startup"),
		RequeuedJobs:    r.Counter("recover_requeued_jobs_total", "queued jobs restored into the queue at startup"),
		ResumedJobs:     r.Counter("recover_resumed_jobs_total", "running jobs handed back to executors at startup"),
	}
}
