package rt

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/wire"
	"indexlaunch/internal/xport"
)

// Config selects the runtime's execution mode. The four evaluation
// configurations of the paper's figures are the cartesian product of DCR
// and IndexLaunches.
type Config struct {
	// Nodes is the number of simulated nodes; tasks are distributed across
	// them by the mapper. Must be >= 1.
	Nodes int
	// ProcsPerNode bounds concurrent task execution per node. Must be >= 1.
	ProcsPerNode int
	// DCR selects dynamic control replication: point tasks are assigned to
	// nodes by the mapper's sharding functor. When false, the centralized
	// path assigns whole slices via the slicing functor.
	DCR bool
	// IndexLaunches selects the paper's IDX configuration, where an index
	// launch stays compact. Without it ExecuteIndex issues every launch as
	// ExecuteLoop's task loop, one single launch per point: "No IDX".
	IndexLaunches bool
	// VerifyLaunches runs the hybrid safety analysis on every index launch
	// at issuance; a launch that fails counts as a Fallback and issues as a
	// task loop (Listing 3's else-branch). Off is Fig 10's "no check".
	VerifyLaunches bool
	// Mapper controls distribution; nil selects BlockMapper.
	Mapper Mapper
	// Retry re-executes failed point tasks (body errors and panics) on
	// their original node with exponential backoff. The zero value
	// disables retry.
	Retry RetryPolicy
	// Fault optionally injects deterministic simulated node failures at
	// issuance boundaries; nil injects none.
	Fault *FaultInjector
	// Transport is node 0's end of the transport the centralized path
	// ships slices through, built by the caller: an *xport.Transport from
	// xport.New (where a ChaosPlan and the ack ladder are set) or a
	// *wire.Mesh. With a mesh, region-free launches ship as one Exec
	// request per worker slice and their point tasks run in the worker
	// process owning their node. Its node must be 0 and its size Nodes;
	// requires DCR == false, since the DCR path sends no slice messages.
	// Nil builds a fault-free in-process transport on the centralized path.
	// One runtime per transport: Recycle resets the transport's sequences
	// under any other runtime's frames in flight. The caller closes it.
	Transport Transport
	// Profile attaches an observability recorder (internal/obs): pipeline
	// stage spans (issuance, logical, distribution, physical, execute),
	// retry/fault/fence incidents and trace capture/replay events are
	// recorded into it, along with the dependence edges the critical-path
	// analysis walks. Nil disables profiling; the disabled hooks cost one
	// predictable branch per site and allocate nothing.
	Profile *obs.Recorder
	// Metrics attaches a live metrics registry (internal/metrics): pipeline
	// counters, stage-latency histograms, worker-queue gauges and the
	// message-transport counters are registered and recorded into it, ready
	// for /metrics exposition. Nil disables the timing-dependent
	// observations (the clock reads); the counters themselves are always
	// maintained — in a private registry — because Runtime.Stats is a
	// read-through view over them.
	Metrics *metrics.Registry
}

// Stats counts runtime pipeline activity; read them with Runtime.Stats.
type Stats struct {
	// LaunchCalls counts ExecuteIndex invocations; SingleCalls counts
	// ExecuteSingle invocations.
	LaunchCalls int64
	SingleCalls int64
	// IndexLaunched counts launches kept compact; Expanded counts task loops
	// issued per point: ExecuteLoop's, and ExecuteIndex's with IndexLaunches
	// off or demoted by a failed safety check.
	IndexLaunched int64
	Expanded      int64
	// Fallbacks counts launches a failed safety check counted as Expanded.
	Fallbacks int64
	// TasksExecuted counts completed point tasks.
	TasksExecuted int64
	// VersionQueries / DepEdges mirror the version map counters.
	VersionQueries int64
	DepEdges       int64
	// DynamicCheckEvals counts projection-functor evaluations spent in
	// dynamic safety checks.
	DynamicCheckEvals int64
	// TraceCaptures / TraceReplays count completed trace episodes.
	TraceCaptures int64
	TraceReplays  int64
	// AnalysisSkipped counts point tasks whose dependence analysis was
	// satisfied from a trace template instead of the version map.
	AnalysisSkipped int64
	// Panics counts task-body panics recovered by the executor (every
	// attempt counts); Retries counts re-executions of failed attempts.
	Panics  int64
	Retries int64
	// TasksFailed counts tasks that failed terminally (after retries);
	// TasksSkipped counts tasks skipped because an upstream task failed.
	TasksFailed  int64
	TasksSkipped int64
	// NodeFailures counts simulated nodes killed; Remapped counts point
	// tasks re-mapped off a dead node at issuance.
	NodeFailures int64
	Remapped     int64
	// Message-transport counters, all zero when the runtime has no
	// transport (DCR mode). MsgSends counts hop-level slice sends,
	// MsgRetransmits timeout-driven re-sends, MsgDrops chaos-lost
	// transmissions (data and acks), MsgDedups received duplicates
	// suppressed by sequence numbers.
	MsgSends       int64
	MsgRetransmits int64
	MsgDrops       int64
	MsgDedups      int64
	// Reparents counts broadcast-tree orphan adoptions (live nodes routed
	// through a surviving ancestor because their parent died);
	// DirectBroadcasts counts broadcasts that abandoned a too-degraded
	// tree for direct node-0 sends.
	Reparents        int64
	DirectBroadcasts int64
}

// Runtime is a single-process implementation of the paper's runtime
// pipeline. Methods that issue work (ExecuteIndex, ExecuteLoop,
// ExecuteSingle, fences and trace markers) must be called from one
// goroutine, preserving the implicit program order of the
// sequential-semantics programming model; task bodies themselves run
// concurrently, on per-node run queues (runq.go).
type Runtime struct {
	cfg    Config
	mapper Mapper

	tasks  []taskEntry
	byName map[string]core.TaskID

	vm     *versionMap
	queues []runQueue // per-node run queues (runq.go)
	// depScratch is physical's reusable dependence dedup state, guarded by
	// issueMu.
	depScratch depScratch

	issueMu sync.Mutex
	// reduceMu serializes reduction flushes.
	reduceMu sync.Mutex
	// outstanding holds one entry per issued launch a fence has not yet
	// waited for, guarded by issueMu.
	outstanding []pendingTask

	// Capture/replay state (replay.go), guarded by issueMu: the open
	// episode, if any, and the captured templates by trace id.
	ep        *episode
	templates map[uint64]*template

	// Fault state, guarded by issueMu: node liveness and the issuance
	// counter that drives deterministic fault injection.
	dead        []bool
	issuedTotal int64

	// Message transport for the centralized path; nil in DCR mode. cluster
	// is the same value when it is a mesh: remote execution.
	xp       Transport
	cluster  *wire.Mesh
	outboxes []outbox // cluster mode: per worker node (distribute.go)

	// stop cancels in-flight retry backoff waits on Shutdown.
	stop     chan struct{}
	stopOnce sync.Once

	// Profiling state, guarded by issueMu: span IDs of live completion
	// events (for dependence-edge recording), and the size past which
	// profNote prunes them next.
	profIDs     map[*Event]int64
	profPruneAt int

	// Distributed-trace state, guarded by issueMu: the current job's span
	// context (installed per attempt by the scheduler via SetTraceRef) and
	// the launch/fence sequence counter deriving per-launch child
	// contexts. A zero jobTC means untraced — the pre-trace behavior.
	jobTC obs.TraceRef
	tcSeq uint64

	// Pipeline metrics. The counters live in reg (the caller's registry,
	// or a private one when Config.Metrics is nil) and Stats reads them
	// back — there is no second bookkeeping path. clk gates the
	// timing-dependent observations: counting is one atomic add either way,
	// but stage spans and latency histograms need clock reads the disabled
	// state must not pay for.
	reg *metrics.Registry
	mx  *metrics.Pipeline
	clk stageClock
}

// stageClock times the pipeline stages and the fences: it is the timebase
// behind every stage span and latency histogram — the profiler's clock when
// one is attached (so spans and histograms agree), the wall clock otherwise.
// With neither a profiler nor a metrics registry attached, now reads no
// clock and done records nothing: one predictable branch each, no closure,
// no allocation.
type stageClock struct {
	prof  *obs.Recorder // stage spans; nil without Config.Profile
	hist  bool          // latency histograms; false without Config.Metrics
	epoch time.Time
}

func (c *stageClock) on() bool { return c.prof != nil || c.hist }

// now reads the clock, or returns 0 when nothing would record the reading.
func (c *stageClock) now() int64 {
	if !c.on() {
		return 0
	}
	return c.read()
}

// read reads the clock unconditionally.
func (c *stageClock) read() int64 {
	if c.prof != nil {
		return c.prof.Now()
	}
	return time.Since(c.epoch).Nanoseconds()
}

// done records one stage interval: a span under tc (with dependence-graph
// identity id, 0 for none) and an observation in h (nil for none).
func (c *stageClock) done(st obs.Stage, h *metrics.Histogram, tc obs.TraceRef, id int64, node int,
	name, tag string, p domain.Point, t0, t1 int64) {
	if c.prof != nil {
		c.prof.SpanIDTC(tc, id, node, st, name, tag, p, t0, t1)
	}
	c.observe(h, t1-t0, 1)
}

// observe is done without the span, n times over: for stage intervals a
// launch's span record holds instead.
func (c *stageClock) observe(h *metrics.Histogram, d, n int64) {
	if c.hist {
		h.ObserveN(d, n)
	}
}

type taskEntry struct {
	name string
	fn   TaskFn
}

// New creates a runtime. Invalid configurations are rejected.
func New(cfg Config) (*Runtime, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("rt: config requires Nodes >= 1, got %d", cfg.Nodes)
	}
	if cfg.ProcsPerNode < 1 {
		return nil, fmt.Errorf("rt: config requires ProcsPerNode >= 1, got %d", cfg.ProcsPerNode)
	}
	m := cfg.Mapper
	if m == nil {
		m = BlockMapper{}
	}
	if cfg.Retry.Max < 0 {
		return nil, fmt.Errorf("rt: config requires Retry.Max >= 0, got %d", cfg.Retry.Max)
	}
	if xp := cfg.Transport; xp != nil {
		if cfg.DCR {
			return nil, fmt.Errorf("rt: Transport requires the centralized path (DCR == false): the DCR path sends no slice messages")
		}
		if got := xp.Nodes(); got != cfg.Nodes {
			return nil, fmt.Errorf("rt: Transport spans %d nodes, config says %d", got, cfg.Nodes)
		}
		if self := xp.Self(); self != 0 {
			return nil, fmt.Errorf("rt: Transport node %d cannot host the runtime: only node 0 issues launches", self)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	mx := metrics.NewPipeline(reg)
	r := &Runtime{
		cfg:    cfg,
		mapper: m,
		byName: map[string]core.TaskID{},
		vm:     newVersionMap(mx.VersionQueries, mx.DepEdges),
		queues: make([]runQueue, cfg.Nodes),
		dead:   make([]bool, cfg.Nodes),
		stop:   make(chan struct{}),
		reg:    reg,
		mx:     mx,
		clk:    stageClock{prof: cfg.Profile, hist: cfg.Metrics != nil, epoch: time.Now()},
	}
	// The centralized path ships slices, so it always has a transport.
	switch {
	case cfg.Transport != nil:
		r.xp = cfg.Transport
		if r.cluster, _ = cfg.Transport.(*wire.Mesh); r.cluster != nil {
			r.outboxes = make([]outbox, cfg.Nodes)
		}
	case !cfg.DCR:
		xp, err := xport.New(cfg.Nodes, xport.Options{Prof: cfg.Profile, Metrics: reg})
		if err != nil {
			return nil, err
		}
		r.xp = xp
	}
	if cfg.Profile != nil {
		r.profIDs = map[*Event]int64{}
	}
	return r, nil
}

// MustNew is New that panics on config errors.
func MustNew(cfg Config) *Runtime {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// RegisterTask registers a task variant and returns its ID. Task names must
// be unique.
func (r *Runtime) RegisterTask(name string, fn TaskFn) (core.TaskID, error) {
	if _, dup := r.byName[name]; dup {
		return 0, fmt.Errorf("rt: task %q already registered", name)
	}
	id := core.TaskID(len(r.tasks))
	r.tasks = append(r.tasks, taskEntry{name: name, fn: fn})
	r.byName[name] = id
	return id, nil
}

// MustRegisterTask is RegisterTask that panics on error.
func (r *Runtime) MustRegisterTask(name string, fn TaskFn) core.TaskID {
	id, err := r.RegisterTask(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// TaskNamed returns the ID of a registered task by name. It lets code that
// did not register the task issue launches against it — the scheduler's
// jobs run on pooled executor runtimes whose task set was registered once
// by a setup hook. Safe only after registration has finished (the runtime's
// single-issuer contract already requires that).
func (r *Runtime) TaskNamed(name string) (core.TaskID, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// Stats returns a snapshot of the pipeline counters. It is a read-through
// view over the runtime's metrics registry — the same counters /metrics
// exposes — so every value is an atomic read and snapshots taken while
// tasks execute concurrently are never torn. The Msg* fields are the
// transport's own counter snapshot, in-process and cluster mode alike (they
// stay zero in DCR mode, which sends no slice messages).
func (r *Runtime) Stats() Stats {
	mx := r.mx
	var xs xport.Stats
	if r.xp != nil {
		xs = r.xp.Stats()
	}
	return Stats{
		LaunchCalls:       mx.LaunchCalls.Value(),
		SingleCalls:       mx.SingleCalls.Value(),
		IndexLaunched:     mx.IndexLaunched.Value(),
		Expanded:          mx.Expanded.Value(),
		Fallbacks:         mx.Fallbacks.Value(),
		TasksExecuted:     mx.TasksExecuted.Value(),
		VersionQueries:    mx.VersionQueries.Value(),
		DepEdges:          mx.DepEdges.Value(),
		DynamicCheckEvals: mx.DynamicCheckEvals.Value(),
		TraceCaptures:     mx.TraceCaptures.Value(),
		TraceReplays:      mx.TraceReplays.Value(),
		AnalysisSkipped:   mx.AnalysisSkipped.Value(),
		Panics:            mx.Panics.Value(),
		Retries:           mx.Retries.Value(),
		TasksFailed:       mx.TasksFailed.Value(),
		TasksSkipped:      mx.TasksSkipped.Value(),
		NodeFailures:      mx.NodeFailures.Value(),
		Remapped:          mx.Remapped.Value(),
		MsgSends:          xs.Sends,
		MsgRetransmits:    xs.Retransmits,
		MsgDrops:          xs.Drops,
		MsgDedups:         xs.Dedups,
		Reparents:         xs.Reparents,
		DirectBroadcasts:  xs.DirectBroadcasts,
	}
}

// Metrics returns the registry the runtime records into: the caller's
// Config.Metrics registry, or the private one backing Stats when none was
// attached. Serve it with metrics.Serve to expose /metrics and /statusz.
func (r *Runtime) Metrics() *metrics.Registry { return r.reg }

// CapacityFactor returns the fraction of the runtime's nodes not killed,
// in [0, 1]. The scheduling layer (internal/sched) feeds this back into
// admission control, so a dead node lowers the admit rate before queues
// overflow.
func (r *Runtime) CapacityFactor() float64 {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	return float64(len(r.aliveLocked())) / float64(r.cfg.Nodes)
}

// ErrBusy marks a Recycle attempt while tasks were still outstanding.
var ErrBusy = errors.New("rt: tasks still outstanding")

// Recycle prepares a long-lived runtime for its next program: it prunes the
// completed-task bookkeeping a fence would otherwise walk, clears the
// profiler's span-identity map, drops the open capture/replay episode —
// firing an open replay's terminal as a discarded EndTrace would, since the
// version map holds it for everything the replay touches — and every
// captured template (trace ids are per program: the next job's
// BeginTrace(1) must capture, not replay this job's shape), and recycles
// the message transport's per-session state (sequence numbers, dedup sets)
// so a runtime reused across many scheduler jobs does not accumulate
// per-job state forever. The runtime must be idle — fence first; Recycle
// fails with ErrBusy when any issued task has not completed.
func (r *Runtime) Recycle() error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	for i := range r.outstanding {
		if pt := &r.outstanding[i]; !pt.ev.Done() {
			return fmt.Errorf("%w: task %q launch %q point %v", ErrBusy, pt.name, pt.tag, pt.first())
		}
	}
	r.outstanding = r.outstanding[:0]
	clear(r.profIDs)
	r.profPruneAt = 0
	if r.replaying() {
		r.ep.finish(true)
	}
	r.ep = nil
	clear(r.templates)
	if r.xp != nil {
		r.xp.Recycle()
	}
	r.jobTC = obs.TraceRef{}
	r.tcSeq = 0
	return nil
}

// SetTraceRef installs the span context whose children subsequent launch,
// point and fence spans are stamped with — the scheduler calls it with a
// per-attempt child of the job's root context before running the job
// body. The zero ref disables stamping (the default).
func (r *Runtime) SetTraceRef(tc obs.TraceRef) {
	r.issueMu.Lock()
	r.jobTC = tc
	r.tcSeq = 0
	r.issueMu.Unlock()
}

// nextLaunchTC derives the next launch's (or fence's) span context from
// the installed job context. Caller holds issueMu.
func (r *Runtime) nextLaunchTC() obs.TraceRef {
	if !r.jobTC.Valid() {
		return obs.TraceRef{}
	}
	r.tcSeq++
	return r.jobTC.Child(r.tcSeq)
}

// Reserved child indices under a launch context: the launch (issue) span
// carries the context itself; stage spans hang off it at fixed indices,
// and per-point contexts use obs.PointChildKey (≥ 16).
const (
	tcLogical    = 1
	tcDistribute = 2
)

// Reserved child indices under a per-point context: the physical span
// carries the point context; execute/fault/retry children use these.
const (
	tcExecute   = obs.ChildExecute
	tcFaultSkip = 2
	tcRetryBase = 0x10 // + attempt number
)

// ErrShutdown marks a fence wait abandoned because the runtime was shut
// down while tasks were still outstanding. Errors returned by FenceTimeout
// and FenceContext match it with errors.Is.
var ErrShutdown = errors.New("rt: runtime shut down")

// Shutdown cancels the runtime's in-flight retry backoff waits and fence
// waits: a task sleeping in its backoff ladder wakes immediately and fails
// with its last error, and a goroutine blocked in FenceTimeout or
// FenceContext returns ErrShutdown, instead of holding the caller hostage
// for the rest of the ladder. Tasks already executing run to completion.
// Idempotent.
func (r *Runtime) Shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
}
