package sched

import (
	"math"
	"sort"
	"time"
)

// Seeded arrival traces and the virtual-time driver: the scheduling
// equivalent of the chaos property suite. GenTrace derives a multi-tenant
// arrival sequence from a seed with the same splitmix64 construction the
// chaos plan uses — every value a pure function of (seed, draw index) — and
// RunTrace plays it through the scheduler state on a virtual clock, so the
// decision log, the fair-share split and the queue-wait distribution are
// pure functions of (trace, config). The CI seed matrix holds RenderLog
// byte-identical across runs, which extends the chaos/soak determinism
// guarantees to scheduling.

// TraceJob is one arrival of a seeded trace.
type TraceJob struct {
	// At is the arrival tick.
	At int64
	// Tenant, Priority, Cost, Deadline mirror JobSpec.
	Tenant   string
	Priority int
	Cost     int64
	Deadline int64
	// Service is the job's execution time in ticks once dispatched.
	Service int64
}

// Trace is a seeded arrival sequence, in arrival order.
type Trace struct {
	Seed int64
	Jobs []TraceJob
}

// TraceOptions shapes GenTrace's arrival process. Zero fields take the
// defaults noted on each.
type TraceOptions struct {
	// Jobs is the number of arrivals; 0 defaults to 1000.
	Jobs int
	// Tenants are the submitting tenants, drawn uniformly; empty defaults
	// to ["a", "b", "c"].
	Tenants []string
	// MaxPriority draws priorities uniformly from [0, MaxPriority]; 0
	// keeps every job at priority 0.
	MaxPriority int
	// MaxInterArrival draws inter-arrival gaps uniformly from
	// [0, MaxInterArrival]; 0 packs all arrivals at tick 0 (a pure
	// backlog, the fair-share convergence regime).
	MaxInterArrival int64
	// MaxCost draws costs uniformly from [1, MaxCost]; 0 fixes cost 1.
	MaxCost int64
	// MinService/MaxService bound the uniform service-time draw in ticks;
	// zero values default to [4, 16].
	MinService, MaxService int64
}

// splitmix64 is the same stateless generator the chaos plan hashes with:
// every draw is a pure function of the evolving state, with no shared
// global stream.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// intn draws uniformly from [0, n); n <= 0 returns 0.
func (r *splitmix64) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// GenTrace derives a deterministic arrival trace from seed.
func GenTrace(seed int64, opt TraceOptions) Trace {
	if opt.Jobs <= 0 {
		opt.Jobs = 1000
	}
	if len(opt.Tenants) == 0 {
		opt.Tenants = []string{"a", "b", "c"}
	}
	minSvc, maxSvc := opt.MinService, opt.MaxService
	if minSvc <= 0 {
		minSvc = 4
	}
	if maxSvc < minSvc {
		maxSvc = minSvc + 12
	}
	rng := &splitmix64{s: uint64(seed)}
	tr := Trace{Seed: seed, Jobs: make([]TraceJob, 0, opt.Jobs)}
	at := int64(0)
	for i := 0; i < opt.Jobs; i++ {
		if opt.MaxInterArrival > 0 {
			at += rng.intn(opt.MaxInterArrival + 1)
		}
		j := TraceJob{
			At:      at,
			Tenant:  opt.Tenants[rng.intn(int64(len(opt.Tenants)))],
			Cost:    1,
			Service: minSvc + rng.intn(maxSvc-minSvc+1),
		}
		if opt.MaxPriority > 0 {
			j.Priority = int(rng.intn(int64(opt.MaxPriority) + 1))
		}
		if opt.MaxCost > 1 {
			j.Cost = 1 + rng.intn(opt.MaxCost)
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	return tr
}

// TraceConfig configures a virtual-time run.
type TraceConfig struct {
	// Executors is the virtual executor-slot count; 0 defaults to 2.
	Executors int
	// Queue is the discipline; nil defaults to FIFO.
	Queue Queue
	// Admission is the admission config (zero value admits everything up
	// to the default bound).
	Admission Admission
	// CapacityAt, when non-nil, supplies the capacity factor fed to
	// admission at each tick — a deterministic stand-in for the runtimes'
	// live-node fraction.
	CapacityAt func(tick int64) float64
}

// TraceResult is a virtual-time run's outcome.
type TraceResult struct {
	// Log is the full decision log; RenderLog(Log) is byte-identical
	// across runs for a fixed (trace, config).
	Log []Decision
	// Completed / Rejected / Expired count outcomes per tenant.
	Completed map[string]int
	Rejected  map[string]int
	Expired   map[string]int
	// ServedCost sums dispatched job cost per tenant — the fair-share
	// measure.
	ServedCost map[string]int64
	// Waits are the queue waits (enqueue to admit) of dispatched jobs, in
	// ticks, in admission order.
	Waits []int64
	// Makespan is the virtual tick the last job completed at.
	Makespan int64
	// JobsPerKTick is completed jobs per 1000 virtual ticks.
	JobsPerKTick float64
}

// P99Wait returns the 99th-percentile queue wait in ticks (0 when nothing
// was dispatched).
func (r TraceResult) P99Wait() int64 { return r.waitQuantile(0.99) }

func (r TraceResult) waitQuantile(q float64) int64 {
	if len(r.Waits) == 0 {
		return 0
	}
	sorted := append([]int64(nil), r.Waits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunTrace plays tr through the scheduler state on a virtual clock. Within
// each tick the order is fixed: completions due this tick (ascending job ID),
// then arrivals, then dispatch until slots or queue run dry; then the clock
// advances (refilling admission buckets). Every step is deterministic, so
// two runs of the same (trace, config) produce byte-identical rendered logs.
func RunTrace(tr Trace, cfg TraceConfig) TraceResult {
	out, err := runTrace(tr, cfg, newTraceState(cfg), nil, DurableOptions{})
	if err != nil {
		panic(err) // without a journal no op can fail
	}
	return out.TraceResult
}

// newTraceState is the trace driver's fresh state: it keeps the decision log
// its result is derived from, and retains no finished job, since nothing
// queries one.
func newTraceState(cfg TraceConfig) *state {
	slots := cfg.Executors
	if slots < 1 {
		slots = 2
	}
	st := newState(cfg.Queue, cfg.Admission, slots, 0)
	st.keepLog = true
	return st
}

// runTrace is the tick loop behind RunTrace and RunTraceDurable. st is fresh
// or recovered; jn journals every op and commits once per tick, and is nil
// for an in-memory run. Arrival i is job i+1 (IDs are dense and every
// arrival, rejected or not, takes one), so the next arrival is st.nextID.
func runTrace(tr Trace, cfg TraceConfig, st *state, jn *journal, opts DurableOptions) (*DurableTraceResult, error) {
	out := &DurableTraceResult{}
	// finishing maps completion tick -> jobs: a trace job admitted at tick T
	// with service S completes at T+S — including jobs running at a crash.
	finishing := map[int64][]*Job{}
	due := func(j *Job) {
		at := j.admitTick + max(j.service, 1)
		finishing[at] = append(finishing[at], j)
	}
	for _, j := range st.running {
		due(j)
	}
	var err error
	var tail uint64 // the newest record written this tick; committed once per tick
	stopped := func() bool { return err != nil || opts.MaxOps > 0 && out.Ops >= opts.MaxOps }
	// step applies (and journals) one op; after an error it does nothing,
	// and stopped ends the loop.
	step := func(o op) (fx effects) {
		if err != nil {
			return fx
		}
		var a ack
		fx, a, err = jn.apply(st, o, false)
		if a.seq != 0 {
			tail = a.seq
			out.Ops++
			if opts.OpDelay > 0 {
				time.Sleep(opts.OpDelay)
			}
		}
		return fx
	}

	for !stopped() {
		if cfg.CapacityAt != nil {
			if f := clampCapacity(cfg.CapacityAt(st.tick)); f != st.adm.capacity {
				step(op{K: opCapacity, Cap: f})
			}
		}
		// 1. Completions due now.
		if done := finishing[st.tick]; len(done) > 0 {
			sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
			for _, j := range done {
				step(op{K: opComplete, Job: j.ID})
			}
			delete(finishing, st.tick)
		}
		// 2. Arrivals due now. Rejected submissions are journaled too:
		// replay reproduces the reject (and its decision) deterministically.
		for int(st.nextID) < len(tr.Jobs) && tr.Jobs[st.nextID].At <= st.tick && !stopped() {
			a := tr.Jobs[st.nextID]
			step(op{K: opSubmit, Job: st.nextID + 1, job: &Job{Spec: JobSpec{
				Tenant: a.Tenant, Priority: a.Priority, Cost: a.Cost, Deadline: a.Deadline,
			}, service: a.Service}})
		}
		// 3. Dispatch onto free slots.
		for !stopped() {
			fx := step(op{K: opDispatch})
			if fx.dispatched == nil {
				break
			}
			due(fx.dispatched)
		}
		if tail != 0 && err == nil {
			err = jn.commit(tail)
			tail = 0
		}
		if err == nil && int(st.nextID) >= len(tr.Jobs) && st.idle() {
			out.Done = true
			break
		}
		step(op{K: opAdvance, N: 1})
	}
	if err == nil && jn != nil {
		err = jn.log.Sync()
	}
	if err != nil {
		return nil, err
	}
	out.TraceResult = deriveResult(st.log, tr)
	return out, nil
}

// deriveResult reconstructs a TraceResult purely from the decision log and
// the trace, so a run resumed across any number of crashes reports exactly
// what one uninterrupted run reports. Costs come from the trace (job i+1 is
// arrival i), waits from the ticks between a job's enqueue (or re-queue) and
// its admission.
func deriveResult(log []Decision, tr Trace) TraceResult {
	res := TraceResult{
		Completed:  map[string]int{},
		Rejected:   map[string]int{},
		Expired:    map[string]int{},
		ServedCost: map[string]int64{},
		Log:        log,
	}
	queuedAt := make([]int64, len(tr.Jobs)+1) // by job ID
	for _, d := range log {
		switch d.Kind {
		case KindEnqueue, KindPreempt:
			queuedAt[d.Job] = d.Tick
		case KindAdmit:
			res.ServedCost[d.Tenant] += max(tr.Jobs[d.Job-1].Cost, 1)
			res.Waits = append(res.Waits, d.Tick-queuedAt[d.Job])
		case KindComplete:
			res.Completed[d.Tenant]++
		case KindReject:
			res.Rejected[d.Tenant]++
		case KindExpire:
			res.Expired[d.Tenant]++
		}
		res.Makespan = max(res.Makespan, d.Tick)
	}
	var completed int
	for _, n := range res.Completed {
		completed += n
	}
	if res.Makespan > 0 {
		res.JobsPerKTick = float64(completed) * 1000 / float64(res.Makespan)
	}
	return res
}
