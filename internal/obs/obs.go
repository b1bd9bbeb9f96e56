// Package obs is the runtime's observability layer: a low-overhead span
// recorder with a single event schema shared by the real runtime
// (internal/rt) and the cluster simulator (internal/sim), so real and
// simulated executions are profiled, exported and analyzed with one tool.
//
// The schema mirrors the paper's pipeline (§5): every span carries the node
// it is attributed to, the pipeline stage (issuance → logical analysis →
// distribution → physical analysis → execute, plus retry/fault/fence and
// trace capture/replay events), the task variant, the launch tag, and the
// launch point. Execution spans additionally carry a span ID, and recorded
// dependence edges between span IDs form the graph the critical-path walker
// (analyze.go) traverses.
//
// Recording is lock-light: one fixed-capacity ring buffer per node, each
// guarded by its own mutex, so workers on different nodes never contend.
// When a ring fills, the oldest events are overwritten and counted as
// dropped. A nil *Recorder is the disabled profiler: every method is
// nil-receiver-safe, costs one branch, and allocates nothing, which is what
// lets the runtime keep its hooks inline on the hot path.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/domain"
)

// Stage identifies the pipeline stage (or runtime incident) a span belongs
// to. The first five values are the paper's pipeline stages in order; the
// rest are runtime incidents that ride on the same stream.
type Stage uint8

const (
	// StageIssue is launch issuance: the O(1) runtime call that creates the
	// launch (minus time accounted to the finer stages below).
	StageIssue Stage = iota
	// StageLogical is whole-launch logical analysis, including dynamic
	// safety checks.
	StageLogical
	// StageDistribute is distribution: sharding- or slicing-functor
	// evaluation and slice/broadcast handling.
	StageDistribute
	// StagePhysical is per-point physical dependence analysis.
	StagePhysical
	// StageExecute is task-body execution on a processor.
	StageExecute
	// StageRetry marks one re-execution of a failed attempt.
	StageRetry
	// StageFault marks a fault incident: a node kill, a re-mapped point, or
	// a task skipped because an upstream task failed.
	StageFault
	// StageFence is an execution fence wait.
	StageFence
	// StageCapture marks a completed trace capture episode.
	StageCapture
	// StageReplay is trace-replay work standing in for skipped analysis.
	StageReplay
	// StageSend is one reliable hop send on the message transport: the span
	// covers first transmission through ack receipt.
	StageSend
	// StageRecv marks a message arriving (first receipt) at a node.
	StageRecv
	// StageRetransmit marks one ack-timeout-driven re-send of a hop.
	StageRetransmit
	// Two retired stages, failure-detector transitions and straggler
	// speculation, hold their numbers so later stages keep theirs:
	// retained traces persist stages as numbers.
	_
	_
	// StageEnqueue marks a job accepted into a scheduler queue
	// (internal/sched).
	StageEnqueue
	// StageAdmit is a job's queue residency: the span from enqueue to the
	// moment the scheduler dispatched it onto an executor.
	StageAdmit
	// StagePreempt marks a running job yielding its executor to a
	// higher-priority arrival and returning to the queue.
	StagePreempt
	// StageDrain is a scheduler drain: the span from the drain request to
	// the last job completing.
	StageDrain
	// StageJournal marks one scheduler decision appended to the write-ahead
	// job journal (internal/wal via internal/sched).
	StageJournal
	// StageSnapshot is a journal snapshot: the span covering state capture,
	// the atomic snapshot write and log compaction.
	StageSnapshot
	// StageRecover is startup recovery: the span from opening the journal
	// to the rebuilt scheduler state (snapshot load plus log replay).
	StageRecover
	// StageJob is a whole job's root span: admission to completion. It is
	// synthesized by the trace layer (internal/trace) when a job finishes,
	// and every other span of the job's trace descends from it.
	StageJob

	numStages = int(StageJob) + 1
)

var stageNames = [numStages]string{
	"issue", "logical", "distribute", "physical", "execute",
	"retry", "fault", "fence", "capture", "replay",
	"send", "recv", "retransmit", "health", "speculate",
	"enqueue", "admit", "preempt", "drain",
	"journal", "snapshot", "recover",
	"job",
}

// String renders the stage name used in exports and reports.
func (s Stage) String() string {
	if int(s) < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// ParseStage inverts String. It reports false for unknown names.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Stages returns every stage in taxonomy order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Event is one recorded span. Start and Dur are nanoseconds on the
// profile's clock: wall time since the recorder's epoch for real runs,
// simulated time for simulator runs — the analysis code never needs to know
// which. Instant events (retries, faults, captures) have Dur == 0.
type Event struct {
	// ID is the span's identity in the dependence graph; 0 for spans that
	// take no part in it (only execute spans carry IDs).
	ID int64
	// Node is the node the span is attributed to.
	Node int32
	// Stage is the pipeline stage.
	Stage Stage
	// Task is the task variant name; empty for launch-level events.
	Task string
	// Tag is the launch tag the span belongs to; empty for runtime-level
	// events such as fences.
	Tag string
	// Point is the launch point for per-point spans; the zero Point (Dim 0)
	// for launch-level spans.
	Point domain.Point
	// Start and Dur are nanoseconds on the profile clock.
	Start int64
	Dur   int64
	// Trace, Span and Parent are the distributed-trace identities
	// (TraceRef); all zero on untraced events.
	Trace  uint64
	Span   uint64
	Parent uint64
}

// End returns the span's completion time.
func (e Event) End() int64 { return e.Start + e.Dur }

// Edge is one dependence edge between execute-span IDs: the task recorded
// as To waited on the task recorded as From.
type Edge struct {
	From int64 `json:"f"`
	To   int64 `json:"t"`
}

// Profile is an immutable snapshot of a recording: the input to export and
// analysis. Events are sorted by start time.
type Profile struct {
	// Source names the producer, "rt" or "sim".
	Source string
	// Nodes is the machine size the profile was recorded on.
	Nodes int
	// WallNS is the run's elapsed (or simulated makespan) time in
	// nanoseconds.
	WallNS int64
	// Dropped counts events and dependence edges lost to ring overflow.
	Dropped int64
	Events  []Event
	Edges   []Edge
}

// ring is one node's event buffer.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever appended
}

// add appends ev, reporting whether it overwrote an unconsumed event.
func (rg *ring) add(ev Event) bool {
	rg.mu.Lock()
	overwrote := rg.put(ev)
	rg.mu.Unlock()
	return overwrote
}

// put is add with rg.mu held.
func (rg *ring) put(ev Event) bool {
	overwrote := rg.next >= uint64(len(rg.buf))
	rg.buf[rg.next%uint64(len(rg.buf))] = ev
	rg.next++
	return overwrote
}

// Sink is the recorder's trace tee: it receives every trace-stamped event,
// and every traced launch's span record whole, as they are recorded. The
// rings stay the lossy profile path; the sink sees spans before any
// overwrite. Implementations must be safe for concurrent calls and cheap:
// they run inline on the recording path.
type Sink interface {
	Record(Event)
	RecordLaunch(*LaunchSpans)
}

// Recorder collects spans from concurrent producers. The zero value is not
// usable; create recorders with NewRecorder or NewSinkRecorder. A nil
// *Recorder is the disabled profiler: all methods are no-ops that allocate
// nothing.
type Recorder struct {
	source string
	epoch  time.Time
	rings  []*ring

	// edges is a ring of dependence edges as large as all event rings
	// together; edgeNext counts the edges ever recorded.
	edgeMu   sync.Mutex
	edges    []Edge
	edgeCap  int
	edgeNext uint64

	nextID  atomic.Int64
	wallNS  atomic.Int64
	dropped atomic.Int64

	// sink, when set, is the tee internal/trace buffers complete traces
	// from.
	sink atomic.Pointer[Sink]
}

// NewRecorder returns a recorder with one ring of perNode events for each
// of nodes nodes. Out-of-range node attributions clamp to the edge rings.
func NewRecorder(source string, nodes, perNode int) *Recorder {
	if nodes < 1 {
		nodes = 1
	}
	if perNode < 16 {
		perNode = 16
	}
	r := &Recorder{source: source, epoch: time.Now(), rings: make([]*ring, nodes), edgeCap: nodes * perNode}
	for i := range r.rings {
		r.rings[i] = &ring{buf: make([]Event, perNode)}
	}
	return r
}

// NewSinkRecorder returns a recorder that only tees to its sink, for a
// process that traces but never snapshots: no rings, so Snapshot is empty,
// Edge a no-op and nothing is dropped.
func NewSinkRecorder(source string) *Recorder {
	return &Recorder{source: source, epoch: time.Now()}
}

// Now returns nanoseconds since the recorder's epoch — the Start clock for
// real-time producers. Returns 0 on a nil recorder.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// NextID allocates a span ID for the dependence graph (IDs start at 1).
// Returns 0 on a nil recorder.
func (r *Recorder) NextID() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// NextIDs allocates a block of n consecutive span IDs and returns the first
// — one call per launch instead of one NextID per point. Returns 0 on a nil
// recorder.
func (r *Recorder) NextIDs(n int) int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(int64(n)) - int64(n) + 1
}

// Span records a span from start to end on the profile clock. No-op on a
// nil recorder.
func (r *Recorder) Span(node int, st Stage, task, tag string, point domain.Point, start, end int64) {
	if r == nil {
		return
	}
	r.record(Event{Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point,
		Start: start, Dur: end - start})
}

// SpanID is Span carrying a dependence-graph identity.
func (r *Recorder) SpanID(id int64, node int, st Stage, task, tag string, point domain.Point, start, end int64) {
	if r == nil {
		return
	}
	r.record(Event{ID: id, Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point,
		Start: start, Dur: end - start})
}

// Mark records an instant event at time at. No-op on a nil recorder.
func (r *Recorder) Mark(node int, st Stage, task, tag string, point domain.Point, at int64) {
	if r == nil {
		return
	}
	r.record(Event{Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point, Start: at})
}

// SpanTC is Span stamped with a trace context. A zero TraceRef degrades to
// a plain Span. No-op on a nil recorder.
func (r *Recorder) SpanTC(tc TraceRef, node int, st Stage, task, tag string, point domain.Point, start, end int64) {
	if r == nil {
		return
	}
	r.record(Event{Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point,
		Start: start, Dur: end - start, Trace: tc.Trace, Span: tc.Span, Parent: tc.Parent})
}

// SpanIDTC is SpanID stamped with a trace context.
func (r *Recorder) SpanIDTC(tc TraceRef, id int64, node int, st Stage, task, tag string, point domain.Point, start, end int64) {
	if r == nil {
		return
	}
	r.record(Event{ID: id, Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point,
		Start: start, Dur: end - start, Trace: tc.Trace, Span: tc.Span, Parent: tc.Parent})
}

// MarkTC is Mark stamped with a trace context.
func (r *Recorder) MarkTC(tc TraceRef, node int, st Stage, task, tag string, point domain.Point, at int64) {
	if r == nil {
		return
	}
	r.record(Event{Node: int32(node), Stage: st, Task: task, Tag: tag, Point: point, Start: at,
		Trace: tc.Trace, Span: tc.Span, Parent: tc.Parent})
}

// SetSink installs (or, with nil, removes) the trace tee.
func (r *Recorder) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&s)
}

// RecordLaunch records a traced launch's per-point spans: each node's ring
// receives its spans under one acquisition of its lock, and the sink, if
// set, receives the record itself. No-op on a nil recorder.
func (r *Recorder) RecordLaunch(ls *LaunchSpans) {
	if r == nil {
		return
	}
	for n, rg := range r.rings {
		var lost int64
		rg.mu.Lock()
		for i := range ls.Rows {
			row := &ls.Rows[i]
			phys := row.PhysNode >= 0 && r.ringOf(row.PhysNode) == n
			exec := row.ExecNode >= 0 && r.ringOf(row.ExecNode) == n
			if !phys && !exec {
				continue
			}
			pev, eev := ls.events(i)
			if phys && rg.put(pev) {
				lost++
			}
			if exec && rg.put(eev) {
				lost++
			}
		}
		rg.mu.Unlock()
		if lost > 0 {
			r.dropped.Add(lost)
		}
	}
	if s := r.sink.Load(); s != nil && ls.TC.Trace != 0 {
		(*s).RecordLaunch(ls)
	}
}

// Dropped returns the number of events and dependence edges lost to ring
// overflow so far — the live counterpart of Profile.Dropped, cheap enough
// to export as a gauge.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Edge records a dependence edge between two span IDs; edges with a zero
// endpoint are dropped. The edges form a ring as large as all event rings
// together: past it, the oldest edge is overwritten and counted as dropped.
// No-op on a nil recorder.
func (r *Recorder) Edge(from, to int64) {
	if r == nil || r.edgeCap == 0 || from == 0 || to == 0 {
		return
	}
	r.edgeMu.Lock()
	overwrote := r.edgeNext >= uint64(r.edgeCap)
	if overwrote {
		r.edges[r.edgeNext%uint64(r.edgeCap)] = Edge{From: from, To: to}
	} else {
		r.edges = append(r.edges, Edge{From: from, To: to})
	}
	r.edgeNext++
	r.edgeMu.Unlock()
	if overwrote {
		r.dropped.Add(1)
	}
}

// SetWall fixes the profile's elapsed time. Without it, Snapshot infers the
// wall from the latest event end.
func (r *Recorder) SetWall(ns int64) {
	if r == nil {
		return
	}
	r.wallNS.Store(ns)
}

// ringOf clamps a node attribution to a ring index.
func (r *Recorder) ringOf(node int32) int {
	return min(max(int(node), 0), len(r.rings)-1)
}

func (r *Recorder) record(ev Event) {
	if len(r.rings) > 0 && r.rings[r.ringOf(ev.Node)].add(ev) {
		r.dropped.Add(1)
	}
	if s := r.sink.Load(); s != nil && ev.Trace != 0 {
		(*s).Record(ev)
	}
}

// Snapshot copies the recording into an immutable Profile, oldest event
// first per ring, globally sorted by start time. The recorder keeps
// recording; snapshots are cheap enough to take mid-run.
func (r *Recorder) Snapshot() *Profile {
	if r == nil {
		return &Profile{Source: "disabled"}
	}
	p := &Profile{Source: r.source, Nodes: len(r.rings), WallNS: r.wallNS.Load()}
	for _, rg := range r.rings {
		rg.mu.Lock()
		capacity := uint64(len(rg.buf))
		kept := rg.next
		if kept > capacity {
			p.Dropped += int64(kept - capacity)
			kept = capacity
		}
		for i := rg.next - kept; i < rg.next; i++ {
			p.Events = append(p.Events, rg.buf[i%capacity])
		}
		rg.mu.Unlock()
	}
	r.edgeMu.Lock()
	if r.edgeNext > uint64(r.edgeCap) {
		p.Dropped += int64(r.edgeNext - uint64(r.edgeCap))
		oldest := int(r.edgeNext % uint64(r.edgeCap))
		p.Edges = append(p.Edges, r.edges[oldest:]...)
		p.Edges = append(p.Edges, r.edges[:oldest]...)
	} else {
		p.Edges = append(p.Edges, r.edges...)
	}
	r.edgeMu.Unlock()
	sortEvents(p.Events)
	if p.WallNS == 0 {
		for _, ev := range p.Events {
			if ev.End() > p.WallNS {
				p.WallNS = ev.End()
			}
		}
	}
	return p
}

// sortEvents orders events by start time, then node, then stage, keeping
// snapshots deterministic for equal-start events.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Stage < b.Stage
	})
}
