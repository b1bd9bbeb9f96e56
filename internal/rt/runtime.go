package rt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
	"indexlaunch/internal/safety"
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
	// IndexLaunches keeps launches compact through analysis. When false,
	// every index launch is expanded into individual single-task launches
	// at issuance, as in the paper's "No IDX" configurations.
	IndexLaunches bool
	// Tracing enables capture/replay of dependence analysis between
	// BeginTrace/EndTrace markers.
	Tracing bool
	// BulkTracing switches tracing to launch granularity (the paper's
	// stated future work): replays keep index launches compact by wiring
	// launch-level dependencies instead of per-task templates. Requires
	// Tracing.
	BulkTracing bool
	// VerifyLaunches runs the hybrid safety analysis on every index launch
	// at issuance; launches that fail are demoted to sequentially-issued
	// task loops (the generated branch of Listing 3).
	VerifyLaunches bool
	// Checks configures the hybrid analysis when VerifyLaunches is set.
	Checks safety.Options
	// Mapper controls distribution; nil selects BlockMapper.
	Mapper Mapper
	// Retry re-executes failed point tasks (body errors and panics) on
	// their original node with exponential backoff. The zero value
	// disables retry.
	Retry RetryPolicy
	// OnUpstreamFailure selects what dependents of a failed task do; the
	// zero value, SkipDependents, fails them with ErrUpstreamFailed.
	OnUpstreamFailure FailurePolicy
	// Fault optionally injects deterministic simulated node failures at
	// issuance boundaries; nil injects none.
	Fault *FaultInjector
	// Heartbeat enables the self-healing failure detector: heartbeat probes
	// over the transport's broadcast tree, accrual-based suspect/dead
	// transitions, quarantine and rejoin. The zero value disables it, which
	// keeps the explicit kill path's semantics. Enabling it gives the DCR
	// path a transport too (probe traffic only).
	Heartbeat HeartbeatPolicy
	// Speculate enables straggler re-launch: point tasks running past an
	// adaptive latency threshold get a backup attempt on another healthy
	// node, first completion wins. The zero value disables it. Speculated
	// task bodies must be pure or reduction-only (direct RW region writes
	// would race between attempts) and should watch Context.Cancelled.
	Speculate SpeculationPolicy
	// Chaos injects deterministic message-level faults (drop, delay,
	// duplication, reordering, partitions) into the in-process transport
	// the runtime builds for the centralized path (every hub port is
	// wrapped in xport.WithChaos). Requires DCR == false: the DCR path
	// replicates control and sends no slice messages. Nil injects none; the
	// transport still carries slices fault-free when the path is
	// centralized.
	Chaos *xport.ChaosPlan
	// Retransmit tunes the transport's per-hop ack-timeout ladder; the
	// zero value uses the transport defaults.
	Retransmit xport.RetransmitPolicy
	// Cluster replaces the in-process transport with a socket mesh
	// (internal/wire): slice shipments, probes and resync broadcasts
	// travel over it, and region-free point tasks execute in the worker
	// process owning their node. The mesh's node 0 must be this process
	// and its size must equal Nodes. Requires the centralized path
	// (DCR == false). Chaos stays nil beside it — that plan is for the
	// transport the runtime builds itself; a mesh goes under a ChaosPlan
	// where it is built, by wrapping its fabric in xport.WithChaos (or, on
	// real sockets, behind a wire.Proxy). Nil (the default) keeps the
	// deterministic in-process transport.
	Cluster *wire.Mesh
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
	// IndexLaunched counts launches processed compactly; Expanded counts
	// launches expanded at issuance (No-IDX mode or safety fallback).
	IndexLaunched int64
	Expanded      int64
	// Fallbacks counts launches demoted to task loops by a failed check.
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
	// Self-healing counters, all zero without a HeartbeatPolicy.
	// HealthProbes counts heartbeat probe round trips, HealthProbeFails
	// probes that exhausted their attempt budget, HealthSuspects detector
	// transitions into suspicion, HealthDeaths suspects declared dead,
	// HealthRejoins quarantined nodes readmitted to the node set.
	HealthProbes     int64
	HealthProbeFails int64
	HealthSuspects   int64
	HealthDeaths     int64
	HealthRejoins    int64
	// Straggler-speculation counters, all zero without a SpeculationPolicy.
	// SpecLaunched counts backup launches, SpecWon backups that committed
	// before the original attempt, SpecWasted attempts discarded because
	// the other attempt won.
	SpecLaunched int64
	SpecWon      int64
	SpecWasted   int64
}

// Runtime is a single-process implementation of the paper's runtime
// pipeline. Methods that issue work (ExecuteIndex, ExecuteSingle, fences and
// trace markers) must be called from one goroutine, preserving the implicit
// program order of the sequential-semantics programming model; task bodies
// themselves run concurrently on the worker pool.
type Runtime struct {
	cfg    Config
	mapper Mapper

	tasks  []taskEntry
	byName map[string]core.TaskID

	vm    *versionMap
	slots []chan struct{} // per-node processor slots

	issueMu     sync.Mutex
	reduceMu    sync.Mutex
	outstanding []pendingTask
	trace       *traceState
	traceStore  map[uint64]*traceTemplate
	bulk        *bulkState
	bulkStore   map[uint64]*bulkTemplate

	// Per-launch bulk-trace scratch, valid while issueMu is held.
	pendingBulkDeps []*Event
	pendingPointEvs []*Event

	// Fault state, guarded by issueMu: node liveness and the issuance
	// counter that drives deterministic fault injection.
	dead        []bool
	issuedTotal int64

	// Self-healing state, guarded by issueMu; nil without a
	// HeartbeatPolicy. specOn caches whether straggler speculation is
	// active (policy enabled and more than one node to speculate onto).
	hm     *healthManager
	specOn bool

	// Message transport for the centralized path; nil in DCR mode. Node 0's
	// endpoint of the reliable broadcast tree: of the in-process assembly
	// the runtime built, or of Config.Cluster's mesh (cluster is then set
	// too, for remote execution). shipping is the slice array the
	// broadcast in flight reassembles into, guarded by deliverMu (transport
	// goroutines deliver concurrently); in cluster mode deliveries land in
	// the worker processes instead.
	xp        *xport.Endpoint
	cluster   *wire.Mesh
	deliverMu sync.Mutex
	shipping  []Slice

	// stop cancels in-flight retry backoff waits on Shutdown.
	stop     chan struct{}
	stopOnce sync.Once

	// Profiling state, guarded by issueMu: span IDs of live completion
	// events (for dependence-edge recording) and the per-launch physical
	// analysis accumulator used to carve the issue-span residual.
	profIDs    map[*Event]int64
	profPhysNS int64

	// Distributed-trace state, guarded by issueMu: the current job's span
	// context (installed per attempt by the scheduler via SetTraceRef) and
	// the launch/fence sequence counter deriving per-launch child
	// contexts. A zero jobTC means untraced — the pre-trace behavior.
	jobTC obs.TraceRef
	tcSeq uint64

	// Pipeline metrics. The counters live in reg (the caller's registry,
	// or a private one when Config.Metrics is nil) and Stats reads them
	// back — there is no second bookkeeping path. mxOn gates the
	// timing-dependent histogram observations: counting is one atomic add
	// either way, but latency histograms need clock reads the disabled
	// state must not pay for. mxEpoch anchors those clock reads when no
	// profiler supplies a timebase.
	reg     *metrics.Registry
	mx      *metrics.Pipeline
	mxOn    bool
	mxEpoch time.Time
}

// pendingTask is an outstanding point task a fence may wait on, with enough
// identity to name it in timeout errors.
type pendingTask struct {
	ev    *Event
	name  string // registered task name (or a synthetic label)
	tag   string
	point domain.Point
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
	if cfg.Chaos != nil && cfg.DCR {
		return nil, fmt.Errorf("rt: Chaos requires the centralized path (DCR == false): the DCR path sends no slice messages")
	}
	if cfg.Heartbeat.Every < 0 {
		return nil, fmt.Errorf("rt: config requires Heartbeat.Every >= 0, got %d", cfg.Heartbeat.Every)
	}
	if q := cfg.Speculate.Quantile; q < 0 || q >= 1 {
		return nil, fmt.Errorf("rt: config requires Speculate.Quantile in [0, 1), got %v", q)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	mx := metrics.NewPipeline(reg)
	r := &Runtime{
		cfg:     cfg,
		mapper:  m,
		byName:  map[string]core.TaskID{},
		vm:      newVersionMap(mx.VersionQueries, mx.DepEdges),
		slots:   make([]chan struct{}, cfg.Nodes),
		dead:    make([]bool, cfg.Nodes),
		stop:    make(chan struct{}),
		reg:     reg,
		mx:      mx,
		mxOn:    cfg.Metrics != nil,
		mxEpoch: time.Now(),
	}
	r.hm = newHealthManager(cfg)
	r.specOn = cfg.Speculate.Enabled() && cfg.Nodes > 1
	// The centralized path always gets a transport (it ships slices); with
	// a HeartbeatPolicy the DCR path gets one too, carrying probe traffic
	// only — the detector needs real routes for chaos to starve. Cluster
	// mode swaps the in-process transport for the socket mesh.
	switch {
	case cfg.Cluster != nil:
		if cfg.DCR {
			return nil, fmt.Errorf("rt: Cluster requires the centralized path (DCR == false)")
		}
		if cfg.Chaos != nil {
			return nil, fmt.Errorf("rt: Cluster excludes Chaos: the runtime cannot apply a plan to a mesh it did not build; wrap the mesh's fabric in xport.WithChaos instead")
		}
		if got := cfg.Cluster.Nodes(); got != cfg.Nodes {
			return nil, fmt.Errorf("rt: Cluster spans %d nodes, config says %d", got, cfg.Nodes)
		}
		if self := cfg.Cluster.Self(); self != 0 {
			return nil, fmt.Errorf("rt: Cluster node %d cannot host the runtime: only node 0 issues launches", self)
		}
		r.cluster = cfg.Cluster
		r.xp = cfg.Cluster.Endpoint
	case !cfg.DCR || cfg.Heartbeat.Enabled():
		xp, err := xport.New(cfg.Nodes, xport.Options{
			Chaos:      cfg.Chaos,
			Retransmit: cfg.Retransmit,
			Prof:       cfg.Profile,
			Metrics:    reg,
			Deliver:    r.transportDeliver,
		})
		if err != nil {
			return nil, err
		}
		r.xp = xp.Endpoint
	}
	if cfg.Profile != nil {
		r.profIDs = map[*Event]int64{}
	}
	for i := range r.slots {
		r.slots[i] = make(chan struct{}, cfg.ProcsPerNode)
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

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

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
		HealthProbes:      mx.HealthProbes.Value(),
		HealthProbeFails:  mx.HealthProbeFails.Value(),
		HealthSuspects:    mx.HealthSuspects.Value(),
		HealthDeaths:      mx.HealthDeaths.Value(),
		HealthRejoins:     mx.HealthRejoins.Value(),
		SpecLaunched:      mx.SpecLaunched.Value(),
		SpecWon:           mx.SpecWon.Value(),
		SpecWasted:        mx.SpecWasted.Value(),
	}
}

// Metrics returns the registry the runtime records into: the caller's
// Config.Metrics registry, or the private one backing Stats when none was
// attached. Serve it with metrics.Serve to expose /metrics and /statusz.
func (r *Runtime) Metrics() *metrics.Registry { return r.reg }

// CapacityFactor returns the live fraction of the runtime's nodes in
// [0, 1]: with a HeartbeatPolicy it counts nodes the failure detector holds
// Alive (suspect, dead and quarantined nodes contribute nothing), without
// one it counts nodes not explicitly killed. The scheduling layer
// (internal/sched) feeds this back into admission control, so quarantine
// lowers the admit rate before queues overflow.
func (r *Runtime) CapacityFactor() float64 {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	c := r.healthCountsLocked()
	return float64(c.Alive) / float64(r.cfg.Nodes)
}

// ErrBusy marks a Recycle attempt while tasks were still outstanding.
var ErrBusy = errors.New("rt: tasks still outstanding")

// Recycle prepares a long-lived runtime for its next program: it prunes the
// completed-task bookkeeping a fence would otherwise walk, clears the
// profiler's span-identity map, and recycles the message transport's
// per-session state (sequence numbers, dedup sets) so a runtime reused
// across many scheduler jobs does not accumulate per-job state forever.
// The runtime must be idle — fence first; Recycle fails with ErrBusy when
// any issued task has not completed.
func (r *Runtime) Recycle() error {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	for _, pt := range r.outstanding {
		if !pt.ev.Done() {
			return fmt.Errorf("%w: task %q launch %q point %v", ErrBusy, pt.name, pt.tag, pt.point)
		}
	}
	r.outstanding = r.outstanding[:0]
	if r.profIDs != nil {
		clear(r.profIDs)
	}
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
// and per-point contexts use pointChildKey (≥ 16).
const (
	tcLogical    = 1
	tcDistribute = 2
)

// Reserved child indices under a per-point context: the physical span
// carries the point context; execute/fault/retry/speculate children use
// these.
const (
	tcExecute    = 1
	tcFaultSkip  = 2
	tcRetryBase  = 0x10 // + attempt number
	tcSpecBackup = 0x41
	tcSpecLost   = 0x42
	tcSpecWon    = 0x43
)

// pointChildKey derives a stable per-point child index from the point's
// coordinates — a pure function, so concurrent replays of the same launch
// produce identical span identities without a counter. Keys below 16 are
// reserved for launch-level stage spans.
func pointChildKey(p domain.Point) uint64 {
	h := uint64(0x706f696e74) // "point"
	for i := 0; i < p.Dim; i++ {
		h = obs.Mix64(h ^ uint64(p.C[i]))
	}
	if h < 16 {
		h += 16
	}
	return h
}

// nowNS reads the runtime's metrics timebase: the profiler's clock when one
// is attached (so spans and histograms agree), the wall clock otherwise.
func (r *Runtime) nowNS() int64 {
	if p := r.cfg.Profile; p != nil {
		return p.Now()
	}
	return time.Since(r.mxEpoch).Nanoseconds()
}

// ErrShutdown marks a fence wait abandoned because the runtime was shut
// down while tasks were still outstanding. Errors returned by FenceTimeout
// and FenceContext match it with errors.Is.
var ErrShutdown = errors.New("rt: runtime shut down")

// Shutdown cancels the runtime's in-flight retry backoff waits and fence
// waits: a task sleeping in its backoff ladder wakes immediately and fails
// with its last error, and a goroutine blocked in FenceTimeout or
// FenceContext returns ErrShutdown, instead of holding the caller hostage
// for the rest of the ladder. Tasks already executing run to completion;
// heartbeat rounds (and thus quarantine/rejoin transitions) stop at the
// next issuance boundary. Idempotent and safe to race with an in-flight
// rejoin.
func (r *Runtime) Shutdown() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// ExecuteIndex issues an index launch and returns its future map. The
// launch is analyzed, distributed and executed asynchronously; Wait on the
// future map (or a fence) to observe completion.
func (r *Runtime) ExecuteIndex(l *core.IndexLaunch) (*FutureMap, error) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	r.mx.LaunchCalls.Inc()

	if int(l.Task) >= len(r.tasks) {
		return nil, fmt.Errorf("rt: launch %q names unregistered task %d", l.Tag, l.Task)
	}

	prof := r.cfg.Profile
	timed := prof != nil || r.mxOn
	name := r.tasks[l.Task].name
	ltc := r.nextLaunchTC()
	var tLaunch, tLogical, logicalNS, distNS int64
	if timed {
		tLaunch = r.nowNS()
		tLogical = tLaunch
		r.profPhysNS = 0
	}

	useIndex := r.cfg.IndexLaunches
	if useIndex && r.cfg.VerifyLaunches && !r.replaying() && !r.bulkReplaying() {
		var tCheck int64
		if r.mxOn {
			tCheck = r.nowNS()
		}
		res := l.Verify(r.cfg.Checks)
		if r.mxOn {
			r.mx.CheckEval.Observe(r.nowNS() - tCheck)
		}
		r.mx.DynamicCheckEvals.Add(res.DynamicEvaluations)
		if !res.Safe {
			// Listing 3's else-branch: run the original task loop.
			r.mx.Fallbacks.Inc()
			useIndex = false
		}
	}
	if timed {
		// Logical stage: whole-launch analysis including the dynamic safety
		// check (near-zero duration when VerifyLaunches is off).
		logicalNS = r.nowNS() - tLogical
		if prof != nil {
			prof.SpanTC(ltc.Child(tcLogical), 0, obs.StageLogical, name, l.Tag, domain.Point{}, tLogical, tLogical+logicalNS)
		}
		if r.mxOn {
			r.mx.LatLogical.Observe(logicalNS)
		}
	}

	if useIndex {
		r.mx.IndexLaunched.Inc()
	} else {
		r.mx.Expanded.Inc()
	}

	// Distribution: compute the node for every point. With DCR the
	// sharding functor is evaluated per point (memoizable, no
	// communication); without DCR the slicing functor produces per-node
	// slices. Either way the real runtime ends with a point → node
	// assignment; the cost difference between the two paths is modeled in
	// internal/sim.
	var tDist int64
	if timed {
		tDist = r.nowNS()
	}
	// In cluster mode a region-free launch's slices are not broadcast ahead
	// of issuance: they ship afterwards as Exec requests (shipment below).
	var ship shipment
	if r.cluster != nil && len(l.Requirements) == 0 {
		ship = make(shipment, r.cfg.Nodes)
	}
	slices, assign := r.assignNodes(l.Domain, l.Tag, ltc.Child(tcDistribute), ship == nil)
	if timed {
		distNS = r.nowNS() - tDist
	}

	if r.bulkReplaying() {
		r.pendingBulkDeps = r.bulk.replayLaunchDeps(l.Task, int(l.Parallelism()))
	}
	r.pendingPointEvs = r.pendingPointEvs[:0]

	fm := newFutureMap()
	err := l.Each(func(pt core.PointTask) bool {
		prs := make([]PhysicalRegion, len(pt.Regions))
		for i, reg := range pt.Regions {
			req := l.Requirements[i]
			prs[i] = PhysicalRegion{Region: reg, Priv: req.Priv, RedOp: req.RedOp, Fields: req.Fields}
		}
		var tShard int64
		if timed {
			tShard = r.nowNS()
		}
		owner, si := assign(pt.Point)
		node := r.faultCheck(l.Domain, pt.Point, owner)
		if timed {
			distNS += r.nowNS() - tShard
		}
		if ship != nil && node != 0 {
			tr, deps := r.analyzePoint(l.Task, l.Tag, pt.Point, node, prs, l.ArgsAt(pt.Point), ltc)
			ship.add(node, si, node == owner, tr, deps)
			fm.add(pt.Point, tr.fut)
			return true
		}
		fut := r.issuePoint(l.Task, l.Tag, pt.Point, node, prs, l.ArgsAt(pt.Point), ltc)
		fm.add(pt.Point, fut)
		return true
	})
	if err != nil {
		return nil, err
	}
	if ship != nil {
		r.shipRemote(ship, slices, l.PointArgs != nil)
	}
	switch {
	case r.trace != nil:
		r.trace.noteLaunch(len(fm.futures))
	case r.bulkCapturing():
		r.bulk.captureLaunchDone(l.Task, len(fm.futures))
	case r.bulkReplaying():
		r.bulk.replayLaunchDone(r.pendingPointEvs)
		r.pendingBulkDeps = nil
	}
	fm.seal()
	if timed {
		// Distribution span: sharding/slicing time aggregated over the
		// launch; issue span: the residual launch bookkeeping, so the four
		// issuance-side stages partition the time spent under issueMu.
		end := r.nowNS()
		resid := (end - tLaunch) - logicalNS - distNS - r.profPhysNS
		if resid < 0 {
			resid = 0
		}
		if prof != nil {
			prof.SpanTC(ltc.Child(tcDistribute), 0, obs.StageDistribute, name, l.Tag, domain.Point{}, tDist, tDist+distNS)
			prof.SpanTC(ltc, 0, obs.StageIssue, name, l.Tag, domain.Point{}, tLaunch, tLaunch+resid)
		}
		if r.mxOn {
			r.mx.LatDistribute.Observe(distNS)
			r.mx.LatIssue.Observe(resid)
		}
	}
	return fm, nil
}

func (r *Runtime) bulkCapturing() bool { return r.bulk != nil && r.bulk.mode == traceCapturing }
func (r *Runtime) bulkReplaying() bool { return r.bulk != nil && r.bulk.mode == traceReplaying }

// SingleReq is a region requirement of a single-task launch: a concrete
// region rather than a ⟨partition, functor⟩ pair.
type SingleReq struct {
	Region *region.Region
	Priv   privilege.Privilege
	RedOp  privilege.OpID
	Fields []region.FieldID
}

// ExecuteSingle issues one task. The task is placed on the node selected by
// the sharding functor for a singleton domain.
func (r *Runtime) ExecuteSingle(tag string, task core.TaskID, reqs []SingleReq, args []byte) (*Future, error) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	r.mx.SingleCalls.Inc()
	if int(task) >= len(r.tasks) {
		return nil, fmt.Errorf("rt: single launch %q names unregistered task %d", tag, task)
	}
	prof := r.cfg.Profile
	timed := prof != nil || r.mxOn
	name := r.tasks[task].name
	ltc := r.nextLaunchTC()
	var tLaunch, distNS int64
	if timed {
		tLaunch = r.nowNS()
		r.profPhysNS = 0
	}
	prs := make([]PhysicalRegion, len(reqs))
	for i, req := range reqs {
		if req.Region == nil {
			return nil, fmt.Errorf("rt: single launch %q requirement %d has nil region", tag, i)
		}
		prs[i] = PhysicalRegion{Region: req.Region, Priv: req.Priv, RedOp: req.RedOp, Fields: req.Fields}
	}
	p := domain.Pt1(0)
	var tDist int64
	if timed {
		tDist = r.nowNS()
	}
	node := clampNode(r.mapper.ShardPoint(domain.Range1(0, 0), p, r.cfg.Nodes), r.cfg.Nodes)
	node = r.faultCheck(domain.Range1(0, 0), p, node)
	if timed {
		distNS = r.nowNS() - tDist
	}
	if r.bulkReplaying() {
		r.pendingBulkDeps = r.bulk.replayLaunchDeps(task, 1)
		r.pendingPointEvs = r.pendingPointEvs[:0]
	}
	fut := r.issuePoint(task, tag, p, node, prs, args, ltc)
	switch {
	case r.trace != nil:
		r.trace.noteLaunch(1)
	case r.bulkCapturing():
		r.bulk.captureLaunchDone(task, 1)
	case r.bulkReplaying():
		r.bulk.replayLaunchDone(r.pendingPointEvs)
		r.pendingBulkDeps = nil
	}
	if timed {
		end := r.nowNS()
		resid := (end - tLaunch) - distNS - r.profPhysNS
		if resid < 0 {
			resid = 0
		}
		if prof != nil {
			prof.SpanTC(ltc.Child(tcDistribute), 0, obs.StageDistribute, name, tag, domain.Point{}, tDist, tDist+distNS)
			prof.SpanTC(ltc, 0, obs.StageIssue, name, tag, domain.Point{}, tLaunch, tLaunch+resid)
		}
		if r.mxOn {
			r.mx.LatDistribute.Observe(distNS)
			r.mx.LatIssue.Observe(resid)
		}
	}
	return fut, nil
}

// assignNodes returns the launch's slices and its point → (node, slice
// index) assignment. With DCR the sharding functor is the assignment and
// there are no slices (index -1). On the centralized path the slicing
// functor's slices are the assignment; with broadcast set they are first
// shipped from node 0 through the message transport's broadcast tree and
// the assignment is built from the delivered slices, reassembled into the
// functor's original order.
func (r *Runtime) assignNodes(d domain.Domain, tag string, tc obs.TraceRef, broadcast bool) ([]Slice, func(domain.Point) (node, slice int)) {
	if r.cfg.DCR {
		return nil, func(p domain.Point) (int, int) {
			n := r.mapper.ShardPoint(d, p, r.cfg.Nodes)
			return clampNode(n, r.cfg.Nodes), -1
		}
	}
	slices := r.mapper.Slice(d, r.cfg.Nodes)
	if broadcast {
		slices = r.shipSlices(tag, slices, tc)
	}
	return slices, func(p domain.Point) (int, int) {
		for i, s := range slices {
			if s.Domain.Contains(p) {
				return clampNode(s.Node, r.cfg.Nodes), i
			}
		}
		return 0, -1
	}
}

func clampNode(n, nodes int) int {
	if n < 0 {
		return 0
	}
	if n >= nodes {
		return nodes - 1
	}
	return n
}

// issuePoint performs per-point dependence analysis (or trace replay) and
// hands the task to the executor. Caller holds issueMu.
func (r *Runtime) issuePoint(task core.TaskID, tag string, p domain.Point, node int,
	prs []PhysicalRegion, args []byte, ltc obs.TraceRef) *Future {

	tr, deps := r.analyzePoint(task, tag, p, node, prs, args, ltc)
	r.mx.InflightTasks.Add(1)
	go func() {
		defer r.mx.InflightTasks.Add(-1)
		if cause := WaitAllErr(deps); cause != nil && r.cfg.OnUpstreamFailure == SkipDependents {
			r.skipPoint(tr, node, cause)
			return
		}
		if r.specOn {
			// Arm the straggler watchdog only once the task is runnable:
			// dependence waits are ordering, not straggling.
			tr.spec = &specState{cancel: make(chan struct{})}
			r.armSpeculation(tr, node)
		}
		r.runAttempt(tr, node, false, resume{})
	}()
	return tr.fut
}

// skipPoint completes tr without running its body because a precondition is
// poisoned, cascading the failure downstream through the task's own event.
func (r *Runtime) skipPoint(tr *taskRun, node int, cause error) {
	r.mx.TasksSkipped.Inc()
	if prof := r.cfg.Profile; prof != nil {
		prof.MarkTC(tr.tc.Child(tcFaultSkip), node, obs.StageFault, tr.name, tr.tag, tr.point, prof.Now())
	}
	tr.fut.complete(nil, &TaskError{
		Task: tr.name, Tag: tr.tag, Point: tr.point, Node: node,
		Err: fmt.Errorf("%w: %w", ErrUpstreamFailed, cause),
	})
}

// analyzePoint is issuance for one point: dependence analysis (or trace
// replay), span identity and fence bookkeeping. It returns the point's run
// state and the events it must wait for; the caller starts it. Caller holds
// issueMu.
func (r *Runtime) analyzePoint(task core.TaskID, tag string, p domain.Point, node int,
	prs []PhysicalRegion, args []byte, ltc obs.TraceRef) (*taskRun, []*Event) {

	fut := newFuture()
	ev := fut.ev
	prof := r.cfg.Profile
	timed := prof != nil || r.mxOn
	name := r.tasks[task].name
	ptc := ltc.Child(pointChildKey(p))

	var deps []*Event
	switch {
	case r.replaying():
		deps = r.trace.replayDeps(task, p, ev)
		r.mx.AnalysisSkipped.Inc()
	case r.bulkReplaying():
		deps = r.pendingBulkDeps
		r.pendingPointEvs = append(r.pendingPointEvs, ev)
		r.mx.AnalysisSkipped.Inc()
	default:
		var tPhys int64
		if timed {
			tPhys = r.nowNS()
		}
		depSet := map[*Event]struct{}{}
		for _, pr := range prs {
			ivs := pr.Region.Intervals()
			for _, f := range pr.Fields {
				for _, d := range r.vm.access(pr.Region.Tree.ID, f, ivs, pr.Priv, pr.RedOp, ev) {
					depSet[d] = struct{}{}
				}
			}
		}
		deps = make([]*Event, 0, len(depSet))
		for d := range depSet {
			deps = append(deps, d)
		}
		if r.capturing() {
			r.trace.recordOp(task, p, ev, deps, prs)
		}
		if r.bulkCapturing() {
			for _, d := range deps {
				r.bulk.captureDep(d)
			}
			r.bulk.capturePoint(ev, prs)
		}
		if timed {
			// Physical stage, attributed to the owning node as in DCR:
			// each node analyzes its local points.
			tEnd := r.nowNS()
			r.profPhysNS += tEnd - tPhys
			if prof != nil {
				prof.SpanTC(ptc, node, obs.StagePhysical, name, tag, p, tPhys, tEnd)
			}
			if r.mxOn {
				r.mx.LatPhysical.Observe(tEnd - tPhys)
			}
		}
	}

	// Span identity and dependence edges for the critical-path graph.
	var spanID int64
	if prof != nil {
		spanID = prof.NextID()
		for _, d := range deps {
			if from, ok := r.profIDs[d]; ok {
				prof.Edge(from, spanID)
			}
		}
		r.profNote(ev, spanID)
	}

	r.outstanding = append(r.outstanding, pendingTask{ev: ev, name: name, tag: tag, point: p})
	r.pruneOutstanding()

	return &taskRun{
		fn: r.tasks[task].fn, task: task, name: name, tag: tag, point: p,
		args: args, prs: prs, fut: fut, spanID: spanID, timed: timed, tc: ptc,
	}, deps
}

// profIDCap bounds the event → span-ID map; beyond it, entries for
// completed events are dropped. A completed event can still be a future
// dependence (the version map keeps last writers), in which case the edge
// is lost — harmless for critical-path purposes, since a long-completed
// dependence never bound a start.
const profIDCap = 1 << 16

// profNote registers ev's span ID for dependence-edge recording. Caller
// holds issueMu.
func (r *Runtime) profNote(ev *Event, id int64) {
	if len(r.profIDs) > profIDCap {
		for e := range r.profIDs {
			if e.Done() {
				delete(r.profIDs, e)
			}
		}
	}
	r.profIDs[ev] = id
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

// takePending atomically drains the outstanding task list.
func (r *Runtime) takePending() []pendingTask {
	r.issueMu.Lock()
	waiting := make([]pendingTask, len(r.outstanding))
	copy(waiting, r.outstanding)
	r.outstanding = r.outstanding[:0]
	r.issueMu.Unlock()
	return waiting
}

// Fence blocks until every previously issued task has completed — an
// execution fence in Legion terms. Failed tasks are treated as completed;
// use FenceErr to observe their errors, or FenceTimeout / FenceContext to
// bound the wait on a hung task.
func (r *Runtime) Fence() {
	prof := r.cfg.Profile
	timed := prof != nil || r.mxOn
	var t0 int64
	if timed {
		t0 = r.nowNS()
	}
	for _, pt := range r.takePending() {
		pt.ev.Wait()
	}
	if timed {
		r.fenceDone(t0)
	}
}

// fenceDone records one completed fence wait that started at t0.
func (r *Runtime) fenceDone(t0 int64) {
	end := r.nowNS()
	if prof := r.cfg.Profile; prof != nil {
		r.issueMu.Lock()
		ftc := r.nextLaunchTC()
		r.issueMu.Unlock()
		prof.SpanTC(ftc, 0, obs.StageFence, "", "fence", domain.Point{}, t0, end)
	}
	if r.mxOn {
		r.mx.FenceWait.Observe(end - t0)
	}
}

// FenceErr blocks like Fence and returns the joined errors of every task
// that failed or was skipped since the previous fence, nil if all
// succeeded.
func (r *Runtime) FenceErr() error {
	prof := r.cfg.Profile
	timed := prof != nil || r.mxOn
	var t0 int64
	if timed {
		t0 = r.nowNS()
	}
	var errs []error
	for _, pt := range r.takePending() {
		if err := pt.ev.WaitErr(); err != nil {
			errs = append(errs, err)
		}
	}
	if timed {
		r.fenceDone(t0)
	}
	return r.wrapLiveness(errors.Join(errs...))
}

// wrapLiveness annotates a non-nil fence error with the node-liveness
// snapshot when some node is degraded, so a failure report says at a
// glance whether the cluster was healthy. Wrapping preserves errors.Is/As.
func (r *Runtime) wrapLiveness(err error) error {
	if err == nil {
		return nil
	}
	c := r.HealthCounts()
	if c.Suspect == 0 && c.Dead == 0 && c.Quarantined == 0 {
		return err
	}
	return fmt.Errorf("%w (%s)", err, r.livenessSummary())
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
// Shutdown during the wait abandons it the same way, with ErrShutdown as
// the cause instead of the context error.
func (r *Runtime) FenceContext(ctx context.Context) error {
	if r.cfg.Profile != nil || r.mxOn {
		t0 := r.nowNS()
		defer r.fenceDone(t0)
	}
	// Bound the waits by Shutdown too: a runtime being torn down must not
	// hold fence callers for the full deadline.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-r.stop:
			cancel()
		case <-wctx.Done():
		}
	}()
	pend := r.takePending()
	var errs []error
	for i, pt := range pend {
		if waitErr := pt.ev.WaitContext(wctx); waitErr != nil {
			if pt.ev.Done() {
				// The task completed (the wait may have raced with the
				// cancellation); record its poison error, if any.
				if err := pt.ev.Err(); err != nil {
					errs = append(errs, err)
				}
				continue
			}
			unfinished := pend[i:]
			r.issueMu.Lock()
			r.outstanding = append(r.outstanding, unfinished...)
			r.issueMu.Unlock()
			cause := ctx.Err()
			if cause == nil {
				// The parent context is live: the wait was abandoned by
				// Shutdown, not by the caller's deadline.
				cause = ErrShutdown
			}
			first := unfinished[0]
			return fmt.Errorf("rt: fence: %w; %d task(s) unfinished, first: task %q launch %q point %v; %s",
				cause, len(unfinished), first.name, first.tag, first.point, r.livenessSummary())
		}
	}
	return r.wrapLiveness(errors.Join(errs...))
}

func (r *Runtime) taskName(id core.TaskID) string {
	if int(id) < len(r.tasks) {
		return r.tasks[id].name
	}
	return fmt.Sprintf("task%d", id)
}
