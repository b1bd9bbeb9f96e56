// Package trace is the end-to-end job tracing layer: the tail-sampling
// collector that turns the span-stamped obs events flowing out of sched,
// rt and xport into queryable per-job traces.
//
// The division of labor with internal/obs: obs owns the span schema
// (TraceRef, the Trace/Span/Parent fields on Event) and the cheap
// recording path; this package owns trace assembly and retention policy.
// The scheduler derives a root TraceRef per admitted job, every layer the
// job passes through stamps its spans with children of that ref, and the
// obs recorder tees each stamped event into Tracer.Record, and each traced
// index launch's per-point span record into Tracer.RecordLaunch, via its
// sink.
// When the job finishes, the scheduler reports the outcome and the tracer
// makes the tail-sampling decision: the complete buffered trace is
// retained if the job failed, was preempted, was retried, ran slower than
// a live latency-quantile threshold, or was head-sampled at a configured
// rate — otherwise the buffer is discarded wholesale. Tail sampling is
// what makes always-on tracing affordable: every job is traced, but only
// the interesting ones are kept.
//
// Retained traces live in a bounded in-memory ring for /trace queries and
// are persisted through an internal/wal segment store (one JSON record
// per trace, ring snapshots for compaction), so a restarted server still
// answers GET /trace/{id} for traces retained before the crash.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/wal"
)

// Config parameterizes a Tracer. The zero value is usable: memory-only
// store, no head sampling, and no slow threshold until SetSlowThreshold
// installs one (so only failed, preempted and retried jobs are retained).
type Config struct {
	// HeadRate head-samples this fraction of traces (0..1) regardless of
	// outcome, deterministically by trace ID, so a quiet healthy system
	// still retains exemplars.
	HeadRate float64
	// MaxRetained bounds the in-memory retained ring (default 64).
	MaxRetained int
	// MaxSpans bounds one trace's span buffer (default 4096), counting
	// every span of a launch record; spans past the cap are dropped and
	// counted in Trace.Truncated.
	MaxSpans int
	// Dir, when non-empty, persists retained traces in a wal segment
	// store rooted there, synced under wal.SyncInterval.
	Dir string
	// SnapshotEvery compacts the store with a ring snapshot every N
	// retained traces (default 16).
	SnapshotEvery int
	// Registry, when non-nil, receives the trace_* metric families.
	Registry *metrics.Registry
}

// Outcome is what the scheduler knows about a finished job at the moment
// the tail-sampling decision is made.
type Outcome struct {
	Failed    bool
	Preempted bool
	Retried   bool
	LatencyNS int64
	Err       string
}

// Trace is one retained job trace: the stored and served record.
type Trace struct {
	// TraceID is the trace identity in hex — the form exemplars and URLs
	// use.
	TraceID string `json:"trace_id"`
	JobID   uint64 `json:"job_id"`
	Tenant  string `json:"tenant,omitempty"`
	// Why names the retention cause: failed, preempted, retried, slow or
	// head.
	Why string `json:"why"`
	// Err carries the job error for failed traces.
	Err     string `json:"err,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Truncated counts spans dropped over the per-trace cap.
	Truncated int64 `json:"truncated,omitempty"`
	// Spans is the complete span set, root first, sorted by start time.
	// The root is a synthesized "job" stage span covering the whole job.
	// Finish leaves it empty: a retained trace keeps its live buffer until
	// the first read (Get, which the HTTP API uses, or the store) expands
	// and sorts it, once.
	Spans []obs.Event `json:"spans"`

	pending *pending // nil for a trace decoded from the store
	nspans  int      // len(Spans) once expanded, fixed at retain
}

// pending is the buffer a retained trace keeps until its first read.
type pending struct {
	once sync.Once
	live *live
}

// expand builds Spans from the buffer Finish left, once: the plain events,
// every launch record's kept spans, and the synthesized root, sorted. Safe
// for concurrent readers.
func (t *Trace) expand() {
	if t.pending == nil {
		return
	}
	t.pending.once.Do(func() {
		l := t.pending.live
		spans := make([]obs.Event, 0, t.nspans)
		spans = append(spans, l.spans...)
		for _, p := range l.launches {
			spans = p.ls.AppendEvents(spans, p.n)
		}
		spans = append(spans, obs.Event{
			ID: int64(l.jobID), Stage: obs.StageJob, Task: "job", Tag: "tenant:" + l.tenant,
			Start: l.startNS, Dur: t.EndNS - l.startNS,
			Trace: l.rootTC.Trace, Span: l.rootTC.Span, Parent: l.rootTC.Parent,
		})
		sortSpans(spans)
		t.Spans, t.pending.live = spans, nil
	})
}

// LatencyNS returns the root span's duration.
func (t *Trace) LatencyNS() int64 { return t.EndNS - t.StartNS }

// Summary is the listing form of a retained trace.
type Summary struct {
	TraceID string  `json:"trace_id"`
	JobID   uint64  `json:"job_id"`
	Tenant  string  `json:"tenant,omitempty"`
	Why     string  `json:"why"`
	MS      float64 `json:"ms"`
	Spans   int     `json:"spans"`
}

// live is one in-flight job's span buffer: plain events beside whole
// launch records, n spans in all.
type live struct {
	jobID    uint64
	tenant   string
	startNS  int64
	rootTC   obs.TraceRef
	spans    []obs.Event
	launches []launchPart
	n        int
	trunc    int64
}

// launchPart is a buffered launch record of which the first n spans are
// kept; the rest fell past MaxSpans.
type launchPart struct {
	ls *obs.LaunchSpans
	n  int
}

// Tracer buffers spans per trace and applies the tail-sampling policy at
// job finish. A nil *Tracer is the disabled layer: every method is a
// nil-receiver no-op, so sched can thread an optional tracer without
// branching at call sites.
type Tracer struct {
	cfg Config

	mu        sync.Mutex
	slow      func() int64     // SetSlowThreshold's cutoff source; nil until set
	inflight  map[uint64]*live // by trace ID
	retained  []*Trace         // ring, oldest first
	byTrace   map[uint64]*Trace
	byJob     map[uint64]*Trace
	log       *wal.Log
	sinceSnap int

	mxRetained *metrics.CounterVec // trace_retained_total{why}
	mxFinished *metrics.Counter    // trace_finished_total
	mxOrphan   *metrics.Counter    // trace_orphan_spans_total
	mxTrunc    *metrics.Counter    // trace_truncated_spans_total
}

// New opens (creating if needed) the tracer and, when cfg.Dir is set,
// recovers previously retained traces from the wal store.
func New(cfg Config) (*Tracer, error) {
	if cfg.MaxRetained <= 0 {
		cfg.MaxRetained = 64
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 4096
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	t := &Tracer{
		cfg:      cfg,
		inflight: map[uint64]*live{},
		byTrace:  map[uint64]*Trace{},
		byJob:    map[uint64]*Trace{},
	}
	if reg := cfg.Registry; reg != nil {
		t.mxRetained = reg.CounterVec("trace_retained_total",
			"Traces retained by the tail sampler, by retention cause.", "why")
		t.mxFinished = reg.Counter("trace_finished_total",
			"Job traces that reached a tail-sampling decision.")
		t.mxOrphan = reg.Counter("trace_orphan_spans_total",
			"Trace-stamped spans arriving for unknown or finished traces.")
		t.mxTrunc = reg.Counter("trace_truncated_spans_total",
			"Spans dropped because a trace hit its per-trace span cap.")
		reg.GaugeFunc("trace_inflight",
			"Jobs currently buffering spans toward a sampling decision.",
			func() int64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				return int64(len(t.inflight))
			})
		reg.GaugeFunc("trace_retained",
			"Retained traces currently queryable in the ring.",
			func() int64 {
				t.mu.Lock()
				defer t.mu.Unlock()
				return int64(len(t.retained))
			})
	}
	if cfg.Dir != "" {
		if err := t.openStore(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SetSlowThreshold installs (or replaces) the slow-trace cutoff source:
// fn returns the current cutoff in nanoseconds. The scheduler calls it
// with a closure over its live job-latency quantile, which the tracer
// cannot know at construction time. A nil fn or a non-positive return
// disables slow retention (an empty histogram yields 0, so warm-up traces
// are not all "slow").
func (t *Tracer) SetSlowThreshold(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = fn
	t.mu.Unlock()
}

// Begin registers a job's root span context so subsequent stamped events
// have a buffer to land in. Idempotent per trace: a preempted job's
// re-dispatch keeps its earlier spans.
func (t *Tracer) Begin(tc obs.TraceRef, jobID uint64, tenant string, startNS int64) {
	if t == nil || !tc.Valid() {
		return
	}
	t.mu.Lock()
	if _, ok := t.inflight[tc.Trace]; !ok {
		t.inflight[tc.Trace] = &live{jobID: jobID, tenant: tenant, startNS: startNS, rootTC: tc}
	}
	t.mu.Unlock()
}

// Record buffers one stamped event — the tracer's side of the obs
// recorder's sink. Events for traces the tracer has never seen (or has
// already decided on) are counted and dropped.
func (t *Tracer) Record(ev obs.Event) {
	if t == nil || ev.Trace == 0 {
		return
	}
	t.mu.Lock()
	l, ok := t.inflight[ev.Trace]
	if !ok {
		t.mu.Unlock()
		t.mxOrphan.Inc()
		return
	}
	if l.n >= t.cfg.MaxSpans {
		l.trunc++
		t.mu.Unlock()
		t.mxTrunc.Inc()
		return
	}
	l.spans = append(l.spans, ev)
	l.n++
	t.mu.Unlock()
}

// RecordLaunch buffers a traced launch's span record whole, unexpanded.
// Its spans count against MaxSpans one by one: a cap falling inside the
// record keeps its first spans and counts the rest as truncated.
func (t *Tracer) RecordLaunch(ls *obs.LaunchSpans) {
	if t == nil || ls.TC.Trace == 0 {
		return
	}
	n := ls.Len()
	t.mu.Lock()
	l, ok := t.inflight[ls.TC.Trace]
	if !ok {
		t.mu.Unlock()
		t.mxOrphan.Add(int64(n))
		return
	}
	keep := max(min(n, t.cfg.MaxSpans-l.n), 0)
	if keep > 0 {
		l.launches = append(l.launches, launchPart{ls: ls, n: keep})
		l.n += keep
	}
	l.trunc += int64(n - keep)
	t.mu.Unlock()
	if n > keep {
		t.mxTrunc.Add(int64(n - keep))
	}
}

// Sink returns the tracer as a recorder sink, or nil for a nil tracer
// (which SetSink treats as "no sink").
func (t *Tracer) Sink() obs.Sink {
	if t == nil {
		return nil
	}
	return t
}

// Finish makes the tail-sampling decision for the trace rooted at tc and
// reports whether the trace was retained and why. The synthesized root
// "job" span covers [startNS, endNS]. Decision table, first match wins:
//
//	failed     → retain (job returned an error)
//	preempted  → retain (job was preempted at least once)
//	retried    → retain (job ran more than one attempt)
//	slow       → retain (latency ≥ the SetSlowThreshold cutoff, if > 0)
//	head       → retain (deterministic HeadRate draw on the trace ID)
//	(none)     → drop the buffered spans
func (t *Tracer) Finish(tc obs.TraceRef, endNS int64, o Outcome) (retained bool, why string) {
	if t == nil || !tc.Valid() {
		return false, ""
	}
	t.mu.Lock()
	l, ok := t.inflight[tc.Trace]
	if !ok {
		t.mu.Unlock()
		return false, ""
	}
	delete(t.inflight, tc.Trace)
	// Copy the policy knobs under the lock: SetSlowThreshold may replace
	// the threshold source concurrently.
	slowFn, headRate := t.slow, t.cfg.HeadRate
	t.mu.Unlock()
	t.mxFinished.Inc()

	why = decide(tc.Trace, o, slowFn, headRate)
	if why == "" {
		return false, ""
	}

	// The trace takes the buffer over as it is: expanding and sorting wait
	// for a read, which most retained traces never get before eviction.
	tr := &Trace{
		TraceID:   strconv.FormatUint(tc.Trace, 16),
		JobID:     l.jobID,
		Tenant:    l.tenant,
		Why:       why,
		Err:       o.Err,
		StartNS:   l.startNS,
		EndNS:     endNS,
		Truncated: l.trunc,
		pending:   &pending{live: l},
		nspans:    l.n + 1,
	}
	t.mxRetained.With(why).Inc()
	t.retain(tr, true)
	return true, why
}

// Abort discards an in-flight trace without a sampling decision — for
// jobs abandoned at scheduler shutdown, whose traces are noise.
func (t *Tracer) Abort(tc obs.TraceRef) {
	if t == nil || !tc.Valid() {
		return
	}
	t.mu.Lock()
	delete(t.inflight, tc.Trace)
	t.mu.Unlock()
}

// decide applies the decision table. Empty string means drop.
func decide(traceID uint64, o Outcome, slowFn func() int64, headRate float64) string {
	switch {
	case o.Failed:
		return "failed"
	case o.Preempted:
		return "preempted"
	case o.Retried:
		return "retried"
	}
	if slowFn != nil {
		if thr := slowFn(); thr > 0 && o.LatencyNS >= thr {
			return "slow"
		}
	}
	if r := headRate; r > 0 {
		// 53-bit deterministic uniform draw on the trace ID: the same
		// trace is head-sampled on every run of a seeded workload.
		u := float64(obs.Mix64(traceID^0x7261636554726163)>>11) / float64(1<<53)
		if u < r {
			return "head"
		}
	}
	return ""
}

// retain inserts tr into the ring and indexes, evicting the oldest past
// MaxRetained, and (when persist is set and a store is open) appends it
// to the wal, snapshotting the ring every SnapshotEvery retains.
func (t *Tracer) retain(tr *Trace, persist bool) {
	if tr.pending == nil {
		tr.nspans = len(tr.Spans) // decoded from the store, already expanded
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retained = append(t.retained, tr)
	if id, err := strconv.ParseUint(tr.TraceID, 16, 64); err == nil {
		t.byTrace[id] = tr
	}
	t.byJob[tr.JobID] = tr
	for len(t.retained) > t.cfg.MaxRetained {
		old := t.retained[0]
		t.retained = t.retained[1:]
		if id, err := strconv.ParseUint(old.TraceID, 16, 64); err == nil && t.byTrace[id] == old {
			delete(t.byTrace, id)
		}
		if t.byJob[old.JobID] == old {
			delete(t.byJob, old.JobID)
		}
	}
	if persist && t.log != nil {
		t.persistLocked(tr)
	}
}

// Get returns a retained trace by hex trace ID or decimal job ID, its
// spans expanded.
func (t *Tracer) Get(key string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	tr := t.lookup(key)
	if tr == nil {
		return nil, false
	}
	tr.expand()
	return tr, true
}

func (t *Tracer) lookup(key string) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, err := strconv.ParseUint(key, 16, 64); err == nil {
		if tr, ok := t.byTrace[id]; ok {
			return tr
		}
	}
	if job, err := strconv.ParseUint(key, 10, 64); err == nil {
		if tr, ok := t.byJob[job]; ok {
			return tr
		}
	}
	return nil
}

// Recent returns up to n retained traces, newest first.
func (t *Tracer) Recent(n int) []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.retained) {
		n = len(t.retained)
	}
	out := make([]Summary, 0, n)
	for i := len(t.retained) - 1; i >= 0 && len(out) < n; i-- {
		tr := t.retained[i]
		out = append(out, Summary{
			TraceID: tr.TraceID, JobID: tr.JobID, Tenant: tr.Tenant, Why: tr.Why,
			MS: float64(tr.LatencyNS()) / 1e6, Spans: tr.nspans,
		})
	}
	return out
}

// Status is the /statusz recent-traces panel.
type Status struct {
	Inflight int       `json:"inflight"`
	Retained int       `json:"retained"`
	Recent   []Summary `json:"recent,omitempty"`
}

// StatusInfo snapshots the tracer for /statusz; zero value on nil.
func (t *Tracer) StatusInfo() Status {
	if t == nil {
		return Status{}
	}
	t.mu.Lock()
	inflight, retained := len(t.inflight), len(t.retained)
	t.mu.Unlock()
	return Status{Inflight: inflight, Retained: retained, Recent: t.Recent(8)}
}

// Close syncs and closes the store. The tracer stays queryable.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		return nil
	}
	err := t.log.Close()
	t.log = nil
	return err
}

// sortSpans orders spans the way obs snapshots do: start, node, stage —
// with span identity as the final key so concurrent same-instant spans
// serialize deterministically.
func sortSpans(spans []obs.Event) {
	slices.SortFunc(spans, func(a, b obs.Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.Stage, b.Stage), cmp.Compare(a.Span, b.Span))
	})
}

// Profile renders a retained trace as an obs.Profile, which is what gives
// /trace its Chrome trace_event export for free.
func (t *Trace) Profile() *obs.Profile {
	p := &obs.Profile{Source: "trace", WallNS: t.EndNS}
	nodes := 1
	for _, ev := range t.Spans {
		if int(ev.Node)+1 > nodes {
			nodes = int(ev.Node) + 1
		}
	}
	p.Nodes = nodes
	p.Events = append(p.Events, t.Spans...)
	return p
}

// marshal is the stored form of one trace record.
func (t *Trace) marshal() ([]byte, error) {
	t.expand()
	b, err := json.Marshal(t)
	if err != nil {
		return nil, fmt.Errorf("trace: marshal %s: %w", t.TraceID, err)
	}
	return b, nil
}
