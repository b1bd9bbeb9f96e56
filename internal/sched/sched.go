package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/trace"
)

// Config configures a live Scheduler.
type Config struct {
	// Executors is the executor-pool size: how many jobs run concurrently,
	// each on its own long-lived rt.Runtime. 0 defaults to 2.
	Executors int
	// Runtime is the executor runtime template — the shared simulated
	// machine every job runs over. The zero value defaults to 4 nodes x 2
	// procs on the centralized path (which gives every executor a reusable
	// message transport). A template with a Transport requires Executors
	// = 1: runtimes cannot share one. New registers the synthetic task
	// (SyntheticSetup) on every executor: it is the one kind the HTTP API
	// and recovery build job bodies for.
	Runtime rt.Config
	// Queue is the discipline; nil defaults to FIFO. The scheduler
	// serializes access, so implementations need no locking.
	Queue Queue
	// Admission configures backpressure (queue bounds, per-tenant quotas,
	// token-bucket rates).
	Admission Admission
	// Preemption enables cooperative preemption: when a submission's
	// priority exceeds a running job's and no executor is free, the lowest
	// -priority running job is asked to yield (JobContext.Preempted); if
	// its body returns ErrPreempted it is re-queued and re-run later.
	Preemption bool
	// TickEvery is the logical tick period: admission buckets refill and
	// live-node capacity feeds back once per tick. 0 defaults to 5ms.
	TickEvery time.Duration
	// Metrics attaches a live metrics registry; nil keeps the scheduler's
	// counters in a private registry (Status still works) and skips the
	// timing-dependent histogram observations, mirroring rt.Config.Metrics.
	Metrics *metrics.Registry
	// Profile attaches an observability recorder: enqueue marks, admit
	// (queue-residency) spans, preempt marks and drain spans are recorded
	// into the same stream the runtime's pipeline stages go to. Nil
	// disables profiling.
	Profile *obs.Recorder
	// Trace attaches the end-to-end tracing layer: every admitted job gets
	// a root span context derived from TraceSeed and its ID, sched stamps
	// its enqueue/admit/preempt events with child spans, the executor
	// runtime propagates the context through its launch pipeline (and the
	// transport's message headers), and the tracer tail-samples the
	// assembled trace at job finish. A finished job whose latency reaches
	// the live p99 of sched_job_latency_ns is retained as slow. Requires
	// Profile — spans reach the tracer through the recorder's sink. Nil
	// disables tracing.
	Trace *trace.Tracer
	// TraceSeed seeds root trace-ID derivation; 0 defaults to 1. Fixed
	// seeds give reproducible trace IDs for seeded workloads.
	TraceSeed uint64
	// Durable configures the write-ahead job journal, whose wal_*/recover_*
	// families and spans go to the scheduler's registry and Profile. An
	// empty Dir runs in-memory only. With a Dir set, every admission
	// decision is journaled, and durable per the fsync policy before
	// anything acknowledges it (a returned job ID, a job's terminal state),
	// and New recovers whatever state the directory holds; a journal
	// failure after startup is fail-stop (panic) — continuing would
	// acknowledge work that could silently vanish.
	Durable DurableOptions
	// TerminalRetention bounds how many finished jobs stay queryable; 0
	// defaults to 4096. Evicted (and never-assigned) IDs are still
	// distinguished by Lookup: gone versus unknown.
	TerminalRetention int
}

// tenantMetrics caches one tenant's resolved metric instruments.
type tenantMetrics struct {
	mEnq, mAdm, mComp, mFail *metrics.Counter
	mDepth                   *metrics.Gauge
	mRej                     map[string]*metrics.Counter
}

// executor is one pooled worker: a goroutine owning a long-lived runtime.
type executor struct {
	id int
	rt *rt.Runtime
}

// Child-key layout under a job's root span context. The enqueue mark is a
// fixed child; per-attempt events pack the attempt number above a small
// kind index so preemption re-runs never collide; the runtime's per-attempt
// context hangs off tcJobExec and partitions its own key space below it.
const (
	tcJobEnqueue = 1
	tcJobAdmit   = 2
	tcJobPreempt = 3
	tcJobExec    = 4
)

// attemptTC derives the span context for attempt n's kind-k event.
func attemptTC(root obs.TraceRef, n int, k uint64) obs.TraceRef {
	return root.Child(uint64(n)<<8 | k)
}

// Scheduler is the concurrent front end over the scheduler state: Submit
// runs admission and wakes the executor pool; executors dispatch from the
// queue, run job bodies on their runtimes, fence, recycle and report back.
// Every state change is one op through do, under mu; what the Scheduler
// itself keeps is what only a live scheduler has — executors,
// acknowledgements, cond-var waits, metrics, spans and the tracer.
type Scheduler struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	st   *state

	stopped bool
	drainNS int64 // drain-span start, 0 until draining

	// Durability state: jn is nil when Config.Durable.Dir is empty.
	jn           *journal
	jmx          *metrics.Durability
	report       RecoveryReport
	recoveredRun []*Job // jobs running at the crash, awaiting executor pickup
	// unacked holds, in journal order, the job finishes whose record is
	// written but not yet durable; ackLoop commits and publishes them.
	// ackWake (capacity 1) says unacked may be non-empty. Unused when jn is
	// nil: finishes publish inline.
	unacked []finish
	ackWake chan struct{}
	ackDone chan struct{}

	execs []*executor

	reg    *metrics.Registry
	mx     *metrics.Scheduler
	mxOn   bool
	prof   *obs.Recorder
	tracer *trace.Tracer
	epoch  time.Time

	tenants map[string]*tenantMetrics

	closing chan struct{} // closed when Shutdown begins
	wg      sync.WaitGroup
}

// doneRetention is the default Config.TerminalRetention.
const doneRetention = 4096

// slowQuantile is the sched_job_latency_ns quantile a traced job's latency
// must reach to be retained as slow.
const slowQuantile = 0.99

// New builds and starts a scheduler: the executor pool spins up
// immediately and jobs run as they are admitted.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}
	if cfg.TraceSeed == 0 {
		cfg.TraceSeed = 1
	}
	if cfg.TerminalRetention <= 0 {
		cfg.TerminalRetention = doneRetention
	}
	if cfg.Runtime.Transport != nil && cfg.Executors > 1 {
		// Every executor is built from the one template: they would share the
		// transport, and one's Recycle would strand the others' frames.
		return nil, fmt.Errorf("sched: a Runtime.Transport serves one executor, got Executors = %d", cfg.Executors)
	}
	rtc := cfg.Runtime
	if rtc.Nodes == 0 {
		rtc = rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// Executors share the scheduler's registry and the caller's recorder:
	// pipeline families are registered idempotently, so the pool aggregates
	// into one set of idx_*/xport_* instruments beside the sched_* families,
	// and /metrics serves both even when the registry is the private one.
	rtc.Metrics = reg
	rtc.Profile = cfg.Profile
	s := &Scheduler{
		cfg:     cfg,
		st:      newState(cfg.Queue, cfg.Admission, cfg.Executors, cfg.TerminalRetention),
		reg:     reg,
		mx:      metrics.NewScheduler(reg),
		mxOn:    cfg.Metrics != nil,
		prof:    cfg.Profile,
		tracer:  cfg.Trace,
		epoch:   time.Now(),
		tenants: map[string]*tenantMetrics{},
		closing: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.tracer != nil {
		// Span-stamped events reach the tracer through the recorder's sink
		// tee; untraced events never touch it.
		if s.prof != nil {
			s.prof.SetSink(s.tracer.Sink())
		}
		lat := s.mx.JobLatency
		s.tracer.SetSlowThreshold(func() int64 { return lat.Quantile(slowQuantile) })
	}
	if s.prof != nil {
		// Ring-overflow drops: events overwritten before any snapshot read
		// them. Pull-style so the recorder's record path stays branch-free.
		prof := s.prof
		reg.GaugeFunc("obs_dropped_events",
			"Events and edges lost to recorder ring overflow; 0 if sink-only.",
			prof.Dropped)
	}
	if cfg.Durable.Dir != "" {
		kinds := DefaultKinds()
		s.st.rebuild = func(req *SubmitRequest) RunFunc {
			run, err := buildRun(kinds, *req)
			if err != nil {
				return nil
			}
			return run
		}
		s.jmx = metrics.NewDurability(reg)
		jn, rep, err := openDurable(cfg.Durable, s.jmx, cfg.Profile, s.timed(), s.st)
		if err != nil {
			return nil, fmt.Errorf("sched: open journal: %w", err)
		}
		s.jn, s.report = jn, rep
		// A restart opens a new serving epoch: a drain in progress at the
		// crash (its decision stays in the log) does not gate the recovered
		// scheduler's admission.
		s.st.draining = false
		// Recovered jobs are waited on like new ones. Those running at the
		// crash go straight back to executors, in ID order, without a second
		// admit decision — the decisions stay identical to an uninterrupted
		// run's.
		for _, j := range s.st.jobs {
			j.done = make(chan struct{})
		}
		for _, j := range s.st.running {
			s.recoveredRun = append(s.recoveredRun, j)
		}
		sort.Slice(s.recoveredRun, func(a, b int) bool { return s.recoveredRun[a].ID < s.recoveredRun[b].ID })
		s.syncDepthGauges("")
	}
	s.mx.CapacityPermille.Set(int64(s.st.adm.capacity * 1000))
	for i := 0; i < cfg.Executors; i++ {
		r, err := rt.New(rtc)
		if err != nil {
			return nil, fmt.Errorf("sched: executor %d: %w", i, err)
		}
		if err := SyntheticSetup(r); err != nil {
			return nil, fmt.Errorf("sched: executor %d setup: %w", i, err)
		}
		s.execs = append(s.execs, &executor{id: i, rt: r})
	}
	if s.jn != nil {
		s.ackWake = make(chan struct{}, 1)
		s.ackDone = make(chan struct{})
		go s.ackLoop()
	}
	for _, ex := range s.execs {
		s.wg.Add(1)
		go s.executorLoop(ex)
	}
	s.wg.Add(1)
	go s.tickLoop()
	return s, nil
}

// Recovery reports what startup recovery found (the zero report when the
// scheduler is not durable or the directory was fresh).
func (s *Scheduler) Recovery() RecoveryReport { return s.report }

// do applies o to the scheduler state and writes its journal record (when
// durable), so journal order is state order by construction. No fsync runs
// here: an acknowledgement of the op's effects holds the returned ack until
// awaitDurable or ackLoop has committed it. Journal failure is fail-stop:
// the scheduler cannot keep acknowledging work it can no longer make
// durable. Caller holds mu.
func (s *Scheduler) do(o op) (effects, ack) {
	fx, a, err := s.jn.apply(s.st, o, true)
	if err != nil {
		panic(fmt.Sprintf("sched: journal failed (fail-stop): %v", err))
	}
	return fx, a
}

// awaitDurable blocks until a's record is durable per the fsync policy,
// sharing the fsync with every other waiter. Called without mu.
func (s *Scheduler) awaitDurable(a ack) {
	if a.seq == 0 {
		return // not durable, or nothing written
	}
	if err := s.jn.commit(a.seq); err != nil {
		panic(fmt.Sprintf("sched: journal commit failed (fail-stop): %v", err))
	}
	s.jn.acked(a)
}

// finish is one job reaching a terminal state: the job, its error, the op
// that ended it (opComplete: it ran; opDispatch: it expired in queue;
// opAbandon: still queued at Shutdown), and the ack of that op's record.
type finish struct {
	j   *Job
	err error
	k   opKind
	ack ack
}

// finishAfterCommit makes f's terminal state observable once its record is
// durable. Without a journal that is now, in the caller's critical section.
// With one, the finish queues for ackLoop and the caller — an executor, which
// has already freed its slot — moves on to its next dispatch instead of
// parking on the fsync. Caller holds mu.
func (s *Scheduler) finishAfterCommit(f finish) {
	if s.jn == nil {
		s.publishLocked(f)
		return
	}
	s.unacked = append(s.unacked, f)
	select {
	case s.ackWake <- struct{}{}:
	default: // a wake-up is already pending; ackLoop will see this finish too
	}
}

// ackLoop delivers completion acknowledgements: it commits the newest
// unacked finish outside mu — one fsync covers every finish written before
// it began, and merges with concurrent submits' commits — then publishes
// everything that commit covered. Runs until Shutdown closes ackWake.
func (s *Scheduler) ackLoop() {
	defer close(s.ackDone)
	for range s.ackWake {
		s.mu.Lock()
		n := len(s.unacked)
		if n == 0 {
			s.mu.Unlock()
			continue
		}
		tail := s.unacked[n-1].ack.seq
		s.mu.Unlock()
		if err := s.jn.commit(tail); err != nil {
			panic(fmt.Sprintf("sched: journal commit failed (fail-stop): %v", err))
		}
		s.mu.Lock()
		s.publishThroughLocked(tail)
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// publishThroughLocked publishes every unacked finish whose record is at or
// below seq, which the caller has just committed. Caller holds mu.
func (s *Scheduler) publishThroughLocked(seq uint64) {
	for len(s.unacked) > 0 && s.unacked[0].ack.seq <= seq {
		f := s.unacked[0]
		s.unacked[0] = finish{}
		s.unacked = s.unacked[1:]
		s.jn.acked(f.ack)
		s.publishLocked(f)
	}
	if len(s.unacked) == 0 {
		s.unacked = nil // let the drained backing array go
	}
}

// quiescentLocked reports no job queued, running, or finished but not yet
// acknowledged — what Drain waits for. Caller holds mu.
func (s *Scheduler) quiescentLocked() bool { return s.st.idle() && len(s.unacked) == 0 }

// MustNew is New that panics on config errors.
func MustNew(cfg Config) *Scheduler {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Registry returns the registry the scheduler records into (the caller's,
// or the private one backing Status). Serve it with metrics.Serve — or use
// sched.Serve, which also mounts the job-submission API.
func (s *Scheduler) Registry() *metrics.Registry { return s.reg }

// Tracer returns the attached tracing layer; nil when tracing is off.
// trace's handlers and status methods are nil-safe, so callers may mount
// and query it unconditionally.
func (s *Scheduler) Tracer() *trace.Tracer { return s.tracer }

// nowNS reads the scheduler's timebase: the profiler's clock when attached
// (so admit spans and the runtime's pipeline spans share one axis), wall
// time since creation otherwise.
func (s *Scheduler) nowNS() int64 {
	if s.prof != nil {
		return s.prof.Now()
	}
	return time.Since(s.epoch).Nanoseconds()
}

func (s *Scheduler) timed() bool { return s.prof != nil || s.mxOn }

// tenant returns (creating on first use) the tenant's resolved instruments.
// Caller holds mu.
func (s *Scheduler) tenant(name string) *tenantMetrics {
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantMetrics{
			mEnq:   s.mx.Enqueued.With(name),
			mAdm:   s.mx.Admitted.With(name),
			mComp:  s.mx.Completed.With(name),
			mFail:  s.mx.Failed.With(name),
			mDepth: s.mx.TenantQueueDepth.With(name),
			mRej:   map[string]*metrics.Counter{},
		}
		s.tenants[name] = ts
	}
	return ts
}

func (ts *tenantMetrics) rejCounter(s *Scheduler, tenant, reason string) *metrics.Counter {
	c := ts.mRej[reason]
	if c == nil {
		c = s.mx.Rejected.With(tenant, reason)
		ts.mRej[reason] = c
	}
	return c
}

// syncDepthGauges refreshes the queue-depth gauges. Caller holds mu.
func (s *Scheduler) syncDepthGauges(tenant string) {
	s.mx.QueueDepth.Set(int64(s.st.q.Len()))
	s.mx.RunningJobs.Set(int64(len(s.st.running)))
	if tenant != "" {
		s.tenant(tenant).mDepth.Set(int64(s.st.queued[tenant]))
	}
}

// Submit runs admission for spec. On success the job is queued (and an
// executor woken) and its ID returned; on backpressure the error matches
// ErrAdmissionRejected and carries a retry-after hint scaled by the tick
// period.
func (s *Scheduler) Submit(spec JobSpec) (JobID, error) { return s.submitKeyed(spec, "") }

// SubmitIdempotent is Submit carrying an idempotency key: a key the
// scheduler has already accepted a job under returns that job's ID without
// a new submission. The key table is journaled (through submit ops and
// snapshots), so a client resubmitting after a server crash still gets its
// original job — exactly-once submission across restarts. Rejected
// submissions do not consume the key.
func (s *Scheduler) SubmitIdempotent(spec JobSpec, key string) (JobID, error) {
	return s.submitKeyed(spec, key)
}

func (s *Scheduler) submitKeyed(spec JobSpec, key string) (JobID, error) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if spec.Run == nil {
		return 0, fmt.Errorf("sched: job spec for tenant %q has no Run body", spec.Tenant)
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return 0, ErrSchedulerClosed
	}
	if key != "" {
		if id, ok := s.st.dedup.get(key); ok {
			// Re-acknowledging the ID is an acknowledgement too: if the
			// original submit is still waiting for its commit, so does this.
			// Until its finish is published a job is live, even retired; once
			// published, its finish record — written after the submit's — is
			// durable, and so is the submit.
			var a ack
			if j := s.liveJob(id); j != nil {
				a.seq = j.submitSeq
			}
			s.mu.Unlock()
			s.awaitDurable(a)
			return id, nil
		}
	}
	// Journaled even if rejected: replay reproduces the reject decision and
	// keeps ID assignment dense. A reject is not waited on: it hands out
	// nothing a crash could take back.
	j := &Job{Spec: spec, done: make(chan struct{})}
	fx, a := s.do(op{K: opSubmit, Job: s.st.nextID + 1, Key: key, job: j})
	ts := s.tenant(spec.Tenant)
	if rej := fx.reject; rej != nil {
		rej.RetryAfter = time.Duration(rej.RetryAfterTicks) * s.cfg.TickEvery
		ts.rejCounter(s, spec.Tenant, rej.Reason).Inc()
		s.mu.Unlock()
		return 0, rej
	}
	ts.mEnq.Inc()
	j.submitSeq = a.seq
	if s.timed() {
		j.enqueueNS = s.nowNS()
		if s.tracer != nil {
			// Root derivation is a pure function of (seed, ID): a seeded
			// workload reproduces its trace IDs run over run.
			j.tc = obs.NewTraceRef(s.cfg.TraceSeed ^ uint64(j.ID)*0x9e3779b97f4a7c15)
			s.tracer.Begin(j.tc, uint64(j.ID), spec.Tenant, j.enqueueNS)
		}
		if s.prof != nil {
			s.prof.MarkTC(j.tc.Child(tcJobEnqueue), 0, obs.StageEnqueue, "", "tenant:"+spec.Tenant,
				domain.Pt1(int64(j.ID)), j.enqueueNS)
		}
	}
	s.syncDepthGauges(spec.Tenant)
	if s.cfg.Preemption && s.st.free == 0 {
		s.maybePreempt(spec.Priority)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	// The job is already dispatchable; only the acknowledgement waits.
	s.awaitDurable(a)
	return j.ID, nil
}

// maybePreempt asks the lowest-priority running job (strictly below prio,
// deterministic tie-break on job ID) to yield. Caller holds mu.
func (s *Scheduler) maybePreempt(prio int) {
	var victim *Job
	for _, j := range s.st.running {
		if j.preemptRequested || j.Spec.Priority >= prio {
			continue
		}
		if victim == nil || j.Spec.Priority < victim.Spec.Priority ||
			(j.Spec.Priority == victim.Spec.Priority && j.ID < victim.ID) {
			victim = j
		}
	}
	if victim != nil && victim.pctx != nil {
		victim.preemptRequested = true
		close(victim.pctx.preempt)
	}
}

// executorLoop is one pool worker: dispatch under mu, run outside it.
func (s *Scheduler) executorLoop(ex *executor) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		resumed := false
		for {
			if s.stopped {
				s.mu.Unlock()
				return
			}
			// Jobs recovered mid-run resume directly: their admit decision
			// is already in the log, so they bypass dispatch (which would
			// record a second one).
			if len(s.recoveredRun) > 0 {
				j = s.recoveredRun[0]
				s.recoveredRun = s.recoveredRun[1:]
				resumed = true
				break
			}
			fx, a := s.do(op{K: opDispatch})
			// Expired jobs reach their terminal state through this record,
			// so their acknowledgement waits on it.
			s.finishDroppedLocked(fx.dropped, ErrDeadlineExpired, opDispatch, a)
			if j = fx.dispatched; j != nil {
				break
			}
			s.cond.Wait()
		}
		j.pctx = &JobContext{Job: j.ID, Tenant: j.Spec.Tenant, Attempt: j.attempts,
			Trace: j.tc, preempt: make(chan struct{})}
		if !resumed {
			s.tenant(j.Spec.Tenant).mAdm.Inc()
			if s.timed() {
				admitNS := s.nowNS()
				s.mx.QueueWait.ObserveExemplar(admitNS-j.enqueueNS, j.tc.Trace)
				if s.prof != nil {
					// The admit span carries the executor that dispatched the
					// job as its node and the job ID as its point.
					s.prof.SpanTC(attemptTC(j.tc, j.attempts, tcJobAdmit), ex.id,
						obs.StageAdmit, "", "tenant:"+j.Spec.Tenant,
						domain.Pt1(int64(j.ID)), j.enqueueNS, admitNS)
				}
			}
		}
		s.syncDepthGauges(j.Spec.Tenant)
		jc := j.pctx
		s.mu.Unlock()

		err := s.runJob(ex, j, jc)

		s.mu.Lock()
		if err == ErrPreempted && !s.stopped && !s.st.draining {
			s.do(op{K: opPreempt, Job: j.ID})
			j.preemptRequested = false
			j.pctx = nil
			j.preempted = true
			s.mx.Preemptions.Inc()
			if s.prof != nil {
				s.prof.MarkTC(attemptTC(j.tc, j.attempts, tcJobPreempt), ex.id,
					obs.StagePreempt, "", "tenant:"+j.Spec.Tenant,
					domain.Pt1(int64(j.ID)), s.nowNS())
			}
			s.syncDepthGauges(j.Spec.Tenant)
		} else {
			s.finishLocked(j, err)
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
}

// runJob executes one attempt: the body, then a fence (any task failure
// becomes the job's error), then a runtime recycle so per-job transport and
// bookkeeping state does not accumulate across the pool's lifetime.
func (s *Scheduler) runJob(ex *executor, j *Job, jc *JobContext) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("sched: job %d panicked: %v", j.ID, rec)
		}
	}()
	if j.Spec.Run == nil {
		// A recovered job whose body could not be rebuilt (submitted
		// programmatically, so no wire form survived the restart).
		return ErrNotRecoverable
	}
	var execTC obs.TraceRef
	var execStart int64
	if j.tc.Valid() {
		// Everything the runtime issues for this attempt hangs off one
		// per-attempt child, so a preemption re-run gets fresh span
		// identities. Recycle below clears it. The attempt span itself is
		// recorded after the body returns — without it the launches' spans
		// would dangle as orphan roots in the assembled tree.
		execTC = attemptTC(j.tc, jc.Attempt, tcJobExec)
		ex.rt.SetTraceRef(execTC)
		execStart = s.nowNS()
	}
	err = j.Spec.Run(jc, ex.rt)
	if execTC.Valid() {
		s.prof.SpanTC(execTC, ex.id, obs.StageExecute, "", "attempt:"+strconv.Itoa(jc.Attempt),
			domain.Pt1(int64(j.ID)), execStart, s.nowNS())
	}
	ferr := ex.rt.FenceErr()
	if err == nil {
		err = ferr
	}
	if rerr := ex.rt.Recycle(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// finishLocked completes j: the op frees the slot and retires the job, and
// its record is written at once, so the executor can take its next job; the
// terminal state becomes observable (publishLocked) only once the record is
// durable, so a completion is never seen before it would survive a crash.
// Caller holds mu.
func (s *Scheduler) finishLocked(j *Job, err error) {
	o := op{K: opComplete, Job: j.ID, Fail: err != nil}
	if err != nil {
		o.Msg = err.Error()
	}
	_, a := s.do(o)
	s.finishAfterCommit(finish{j: j, err: err, k: opComplete, ack: a})
}

// finishDroppedLocked fails the jobs one op dropped without running them:
// k's record, acked as a, is what makes them terminal. Caller holds mu.
func (s *Scheduler) finishDroppedLocked(jobs []*Job, err error, k opKind, a ack) {
	for _, j := range jobs {
		s.finishAfterCommit(finish{j: j, err: err, k: k, ack: a})
		a.timed = false // one record, one wal_append_ns sample
	}
}

// publishLocked makes a finished job's terminal state observable: tenant
// metrics, j.state and j.err, close(j.done), the trace's outcome. Caller
// holds mu.
func (s *Scheduler) publishLocked(f finish) {
	j, err := f.j, f.err
	ts := s.tenant(j.Spec.Tenant)
	msg := ""
	if err != nil {
		j.state = JobFailed
		msg = err.Error()
	} else {
		j.state = JobDone
	}
	j.err = err
	switch f.k {
	case opAbandon:
		ts.rejCounter(s, j.Spec.Tenant, ReasonShutdown).Inc()
	case opDispatch:
		// Expiry happened at dispatch, before the job took a slot, so only
		// the job's own lifecycle needs closing.
		ts.mFail.Inc()
		s.mx.Expired.Inc()
	default:
		if err != nil {
			ts.mFail.Inc()
		} else {
			ts.mComp.Inc()
		}
	}
	close(j.done)
	if f.k == opAbandon {
		// Abandoned-at-shutdown traces are noise, not signal: discard the
		// buffers instead of retaining one failed trace per queued job.
		s.tracer.Abort(j.tc)
		return
	}
	var latNS int64
	if s.timed() && j.enqueueNS > 0 {
		latNS = s.nowNS() - j.enqueueNS
		if f.k == opComplete {
			s.mx.JobLatency.ObserveExemplar(latNS, j.tc.Trace)
		}
	}
	if s.tracer != nil && j.tc.Valid() {
		out := trace.Outcome{Failed: err != nil, LatencyNS: latNS, Err: msg}
		if f.k == opComplete {
			out.Preempted, out.Retried = j.preempted, j.attempts > 1
		}
		s.tracer.Finish(j.tc, s.nowNS(), out)
	}
	s.syncDepthGauges(j.Spec.Tenant)
	if f.k == opComplete && s.drainNS != 0 && s.quiescentLocked() && s.prof != nil {
		s.prof.Span(0, obs.StageDrain, "", "drain", domain.Point{}, s.drainNS, s.nowNS())
		s.drainNS = 0
	}
}

// tickLoop advances logical time: capacity feedback from the executor
// runtimes' live-node fractions, then a bucket refill.
func (s *Scheduler) tickLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-t.C:
		}
		// Read capacity outside mu: CapacityFactor takes each runtime's
		// issuance lock, which a running job may hold.
		cap := 1.0
		for _, ex := range s.execs {
			cap = min(cap, ex.rt.CapacityFactor())
		}
		s.mu.Lock()
		s.setCapacityLocked(cap)
		s.do(op{K: opAdvance, N: 1})
		s.mu.Unlock()
		if s.jn != nil {
			if err := s.jn.syncIdle(); err != nil {
				panic(fmt.Sprintf("sched: journal commit failed (fail-stop): %v", err))
			}
		}
	}
}

// SetCapacityFactor overrides the runtime-fed capacity factor until the next
// tick re-reads it — a test hook and an operator brake. Factors outside
// [0, 1] are clamped.
func (s *Scheduler) SetCapacityFactor(f float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setCapacityLocked(f)
}

// setCapacityLocked feeds f to admission — an op only when it changes what
// admission sees — and to the capacity gauge. Caller holds mu.
func (s *Scheduler) setCapacityLocked(f float64) {
	if f = clampCapacity(f); f != s.st.adm.capacity {
		s.do(op{K: opCapacity, Cap: f})
	}
	s.mx.CapacityPermille.Set(int64(f * 1000))
}

// liveJob returns id's *Job while this process holds it: queued, running,
// finished but not yet published (its state turns terminal only then, and
// the terminal ring may already have evicted it), or finished here and still
// retained. Jobs retired during recovery have no done channel and answer
// from the terminal ring alone. Caller holds mu.
func (s *Scheduler) liveJob(id JobID) *Job {
	if j := s.st.jobs[id]; j != nil {
		return j
	}
	if rj, ok := s.st.terminal.get(id); ok && rj.job != nil && rj.job.done != nil {
		return rj.job
	}
	for _, f := range s.unacked {
		if f.j.ID == id {
			return f.j
		}
	}
	return nil
}

// Wait blocks until job id finishes and returns its error. Jobs finished
// before this process started (known only from the recovered terminal ring)
// report a reconstructed error; unknown or retired IDs return an error.
func (s *Scheduler) Wait(id JobID) error {
	s.mu.Lock()
	j := s.liveJob(id)
	rj, retired := s.st.terminal.get(id)
	s.mu.Unlock()
	switch {
	case j != nil:
		<-j.done
		return j.err
	case !retired:
		return fmt.Errorf("sched: unknown job %d", id)
	case rj.Failed && rj.Error != "":
		return errors.New(rj.Error)
	case rj.Failed:
		return fmt.Errorf("sched: job %d failed", id)
	}
	return nil
}

// JobInfo is one job's queryable snapshot (the GET /jobs payload).
type JobInfo struct {
	ID       JobID  `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// Job returns a job's current snapshot.
func (s *Scheduler) Job(id JobID) (JobInfo, bool) {
	info, res := s.Lookup(id)
	return info, res == LookupFound
}

// LookupResult distinguishes why a job snapshot is unavailable: Gone means
// the ID was assigned (finished and evicted from retention, or consumed by
// a rejected submission) while Unknown means it never was — the difference
// between HTTP 410 and 404. IDs are dense, so the split is exact.
type LookupResult uint8

const (
	LookupFound LookupResult = iota
	LookupGone
	LookupUnknown
)

// Lookup returns a job's snapshot, checking live jobs, then the terminal
// ring.
func (s *Scheduler) Lookup(id JobID) (JobInfo, LookupResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.liveJob(id); j != nil {
		info := JobInfo{ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
			State: j.state.String(), Attempts: j.attempts}
		if j.err != nil {
			info.Error = j.err.Error()
		}
		return info, LookupFound
	}
	if rj, found := s.st.terminal.get(id); found {
		state := JobDone
		if rj.Failed {
			state = JobFailed
		}
		return JobInfo{ID: rj.ID, Tenant: rj.Tenant, Priority: rj.Priority,
			State: state.String(), Attempts: rj.Attempts, Error: rj.Error}, LookupFound
	}
	if id >= 1 && id <= s.st.nextID {
		return JobInfo{}, LookupGone
	}
	return JobInfo{}, LookupUnknown
}

// lookupCommitted is Lookup that first waits out the pending commit of
// id's written finish record — until the job publishes or Shutdown begins
// — so a finished job does not read as running.
func (s *Scheduler) lookupCommitted(id JobID) (JobInfo, LookupResult) {
	var done chan struct{}
	s.mu.Lock()
	if i := slices.IndexFunc(s.unacked, func(f finish) bool { return f.j.ID == id }); i >= 0 {
		done = s.unacked[i].j.done
	}
	s.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-s.closing:
		}
	}
	return s.Lookup(id)
}

// Drain stops admission (submissions fail with reason "draining") and
// blocks until every queued and running job has finished and been
// acknowledged, or ctx expires. On success the whole journal is durable per
// the fsync policy: a drained scheduler is a quiescence point.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	if !s.st.draining {
		s.do(op{K: opDrain})
		s.mx.Drains.Inc()
		if s.prof != nil {
			s.drainNS = s.nowNS()
		}
	}
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stop()
	for !s.quiescentLocked() && ctx.Err() == nil && !s.stopped {
		s.cond.Wait()
	}
	idle := s.quiescentLocked()
	if idle && s.drainNS != 0 && s.prof != nil {
		s.prof.Span(0, obs.StageDrain, "", "drain", domain.Point{}, s.drainNS, s.nowNS())
		s.drainNS = 0
	}
	var tail ack
	if idle && s.jn != nil {
		// Every finish is committed; what can remain unsynced is the drain
		// op itself and records nothing waited on.
		tail.seq = s.jn.log.LastSeq()
	}
	s.mu.Unlock()
	if !idle {
		return fmt.Errorf("sched: drain: %w", ctx.Err())
	}
	s.awaitDurable(tail)
	return nil
}

// Shutdown stops the scheduler: queued jobs that never ran fail with
// ErrSchedulerClosed, running jobs finish, executors exit, every pending
// acknowledgement is committed and delivered, and the runtimes and the
// journal close. Idempotent.
func (s *Scheduler) Shutdown() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	close(s.closing)
	// Fail everything still queued; executors drain their running jobs. The
	// abandon is one op, so replay reproduces the shutdown rejects exactly.
	fx, a := s.do(op{K: opAbandon})
	s.finishDroppedLocked(fx.dropped, ErrSchedulerClosed, opAbandon, a)
	s.syncDepthGauges("")
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	for _, ex := range s.execs {
		ex.rt.Shutdown()
	}
	if s.jn != nil {
		// Executors and the tick loop have exited, so nothing writes or
		// queues a finish any more: let ackLoop deliver what is pending and
		// stop. Then the final snapshot bounds the next start's replay, and
		// closing the journal syncs whatever tail is left.
		close(s.ackWake)
		<-s.ackDone
		s.mu.Lock()
		err := s.jn.snapshot(s.st)
		s.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("sched: journal snapshot failed (fail-stop): %v", err))
		}
		_ = s.jn.log.Close() // the snapshot just made everything durable; nothing is left to lose
	}
}

// TenantStatus is one tenant's row of the /statusz queue table.
type TenantStatus struct {
	Tenant    string `json:"tenant"`
	Weight    int    `json:"weight"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Enqueued  int64  `json:"enqueued"`
	Admitted  int64  `json:"admitted"`
	Rejected  int64  `json:"rejected"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	// Tokens is the admission bucket level; -1 for unlimited tenants.
	Tokens float64 `json:"tokens"`
}

// DurabilityStatus is the /statusz durability panel: live journal position,
// snapshot debt, and what startup recovery rebuilt.
type DurabilityStatus struct {
	Dir           string `json:"dir"`
	Fsync         string `json:"fsync"`
	LastSeq       uint64 `json:"last_seq"`
	SnapshotSeq   uint64 `json:"snapshot_seq"`
	SinceSnapshot int    `json:"since_snapshot"`
	Segments      int    `json:"segments"`
	Appends       uint64 `json:"appends"`
	Snapshots     uint64 `json:"snapshots"`
	// Fsyncs counts every fsync syscall; CommitFsyncs of them were group
	// commits, which made CommitRecords records durable between them
	// (their ratio is the mean batch, the wal_commit_records histogram).
	// CommitWaitP50NS / P99NS summarize wal_commit_wait_ns — how long an
	// acknowledgement waited for durability; 0 when the scheduler is
	// untimed.
	Fsyncs          uint64 `json:"fsyncs"`
	CommitFsyncs    uint64 `json:"commit_fsyncs"`
	CommitRecords   uint64 `json:"commit_records"`
	CommitWaitP50NS int64  `json:"commit_wait_p50_ns"`
	CommitWaitP99NS int64  `json:"commit_wait_p99_ns"`
	// TerminalRetained / DedupKeys size the bounded retention rings.
	TerminalRetained int `json:"terminal_retained"`
	DedupKeys        int `json:"dedup_keys"`
	// Recovery describes what this process rebuilt at startup.
	Recovery RecoveryReport `json:"recovery"`
}

// Status is the scheduler's point-in-time introspection snapshot: the
// /statusz payload, including the per-tenant queue table.
type Status struct {
	Queue            string         `json:"queue"`
	Executors        int            `json:"executors"`
	Draining         bool           `json:"draining,omitempty"`
	QueueDepth       int            `json:"queue_depth"`
	Running          int            `json:"running"`
	CapacityPermille int64          `json:"capacity_permille"`
	Decisions        int64          `json:"decisions"`
	Tenants          []TenantStatus `json:"tenants"`
	// Durability is present when the write-ahead journal is enabled.
	Durability *DurabilityStatus `json:"durability,omitempty"`
	// Tracing is the recent-traces panel, present when a tracer is
	// attached.
	Tracing *trace.Status `json:"tracing,omitempty"`
	// ObsDroppedEvents counts profile events overwritten in the recorder
	// rings before any snapshot read them (present with a recorder).
	ObsDroppedEvents int64 `json:"obs_dropped_events,omitempty"`
}

// Status snapshots the scheduler. Safe for concurrent use; intended as a
// metrics.StatusFunc.
func (s *Scheduler) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Queue:            s.st.q.Name(),
		Executors:        s.cfg.Executors,
		Draining:         s.st.draining,
		QueueDepth:       s.st.q.Len(),
		Running:          len(s.st.running),
		CapacityPermille: int64(s.st.adm.capacity * 1000),
		Decisions:        s.st.seq,
	}
	if s.tracer != nil {
		ts := s.tracer.StatusInfo()
		st.Tracing = &ts
	}
	if s.prof != nil {
		st.ObsDroppedEvents = s.prof.Dropped()
	}
	if s.jn != nil {
		ws := s.jn.log.Stats()
		st.Durability = &DurabilityStatus{
			Dir:              s.cfg.Durable.Dir,
			Fsync:            s.cfg.Durable.Fsync.String(),
			LastSeq:          ws.LastSeq,
			SnapshotSeq:      ws.SnapshotSeq,
			SinceSnapshot:    s.jn.sinceSnap,
			Segments:         ws.Segments,
			Appends:          uint64(ws.Appends),
			Snapshots:        uint64(ws.Snapshots),
			Fsyncs:           uint64(ws.Fsyncs),
			CommitFsyncs:     uint64(ws.CommitFsyncs),
			CommitRecords:    uint64(ws.CommitRecords),
			CommitWaitP50NS:  s.jmx.CommitWaitNS.Quantile(0.5),
			CommitWaitP99NS:  s.jmx.CommitWaitNS.Quantile(0.99),
			TerminalRetained: len(s.st.terminal.order),
			DedupKeys:        len(s.st.dedup.order),
			Recovery:         s.report,
		}
	}
	running := map[string]int{}
	for _, j := range s.st.running {
		running[j.Spec.Tenant]++
	}
	names := make([]string, 0, len(s.st.counts))
	for name := range s.st.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := s.st.counts[name]
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: name, Weight: s.cfg.Admission.Weight(name),
			Queued: s.st.queued[name], Running: running[name],
			Enqueued: c.Enqueued, Admitted: c.Admitted, Rejected: c.Rejected,
			Completed: c.Completed, Failed: c.Failed,
			Tokens: s.st.adm.tokens(name),
		})
	}
	return st
}
