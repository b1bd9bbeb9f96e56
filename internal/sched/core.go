package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies one scheduler decision.
type Kind uint8

const (
	// KindEnqueue: a submission passed admission and joined the queue.
	KindEnqueue Kind = iota
	// KindReject: admission refused a submission (backpressure).
	KindReject
	// KindAdmit: a queued job was dispatched onto an executor.
	KindAdmit
	// KindComplete: a running job finished (ok or err).
	KindComplete
	// KindPreempt: a running job yielded its executor and was re-queued.
	KindPreempt
	// KindExpire: a queued job was dropped at dispatch past its deadline.
	KindExpire
	// KindDrain: graceful drain began; later submissions are rejected.
	KindDrain
)

var kindNames = [...]string{"enqueue", "reject", "admit", "complete", "preempt", "expire", "drain"}

// String renders the decision kind used in the canonical log form.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Decision is one scheduler decision, stamped with the logical tick it was
// taken in. The rendered form is intentionally canonical — the determinism
// suite compares rendered decision logs byte for byte.
type Decision struct {
	Seq    int64  `json:"seq"`
	Tick   int64  `json:"tick"`
	Kind   Kind   `json:"kind"`
	Job    JobID  `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// String renders the decision canonically:
// "d<seq> t<tick> <kind> j<job> <tenant> <detail>".
func (d Decision) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%d t%d %s", d.Seq, d.Tick, d.Kind)
	if d.Job > 0 {
		fmt.Fprintf(&b, " j%d %s", d.Job, d.Tenant)
	}
	if d.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(d.Detail)
	}
	return b.String()
}

// RenderLog renders a decision sequence one line per decision — the
// byte-comparable form of a scheduler history.
func RenderLog(log []Decision) string {
	var b strings.Builder
	for _, d := range log {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// detail renders a decision's canonical detail from the two numbers (and,
// for a reject, the reason) its kind carries.
func detail(k Kind, a, b int64, reason string) string {
	itoa := func(n int64) string { return strconv.FormatInt(n, 10) }
	switch k {
	case KindEnqueue:
		return "prio=" + itoa(a) + " cost=" + itoa(b)
	case KindReject:
		if b > 0 {
			return "reason=" + reason + " retry=" + itoa(b)
		}
		return "reason=" + reason
	case KindAdmit:
		return "wait=" + itoa(a)
	case KindComplete:
		if a != 0 {
			return "err"
		}
		return "ok"
	case KindPreempt:
		return "attempt=" + itoa(a)
	case KindExpire:
		return "deadline=" + itoa(a) + " waited=" + itoa(b)
	case KindDrain:
		return "queued=" + itoa(a) + " running=" + itoa(b)
	}
	return ""
}

// tenantCounts are one tenant's decision counts — the /statusz counters,
// carried in snapshots so they survive a restart.
type tenantCounts struct {
	Enqueued  int64 `json:"enq,omitempty"`
	Admitted  int64 `json:"adm,omitempty"`
	Rejected  int64 `json:"rej,omitempty"`
	Completed int64 `json:"comp,omitempty"`
	Failed    int64 `json:"fail,omitempty"`
}

// state is the scheduler's whole deterministic state: the policy (queue
// discipline, admission, slots, logical clock) plus the bookkeeping every
// decision updates — the live jobs table, the ID counter, the terminal and
// idempotency rings, and the decisions (per-tenant counts, or the whole log
// for an owner that keeps it). apply is the only way it changes, so the live
// scheduler, journal replay and the trace driver cannot drift apart. It has
// no clock of its own and is not safe for concurrent use.
type state struct {
	q     Queue
	adm   *admission
	slots int
	free  int

	draining bool
	tick     int64
	seq      int64

	queued  map[string]int
	running map[JobID]*Job

	jobs     map[JobID]*Job // queued or running
	nextID   JobID
	terminal *terminalRing
	dedup    *dedupRing
	// The decisions are kept whole in log when keepLog is set (the trace
	// driver derives its result from them) and as per-tenant counts
	// otherwise (the live scheduler: bounded, whatever it serves).
	keepLog bool
	log     []Decision
	counts  map[string]*tenantCounts

	// rebuild maps a replayed submit's wire request back to a job body; nil
	// leaves replayed jobs without one.
	rebuild func(*SubmitRequest) RunFunc
}

func newState(q Queue, adm Admission, slots, retention int) *state {
	if q == nil {
		q = NewFIFO()
	}
	if slots < 1 {
		slots = 1
	}
	return &state{
		q: q, adm: newAdmission(adm), slots: slots, free: slots,
		queued:   map[string]int{},
		running:  map[JobID]*Job{},
		jobs:     map[JobID]*Job{},
		terminal: newTerminalRing(retention),
		dedup:    newDedupRing(),
		counts:   map[string]*tenantCounts{},
	}
}

// effects is what one op did that its owner acts on.
type effects struct {
	dispatched *Job         // opDispatch: the job admitted onto a slot
	dropped    []*Job       // failed without running: expired at dispatch, abandoned at shutdown
	reject     *RejectError // opSubmit: admission refused the job
}

// apply performs one op. Every derived outcome — the dispatched job, the
// reject reason, the decisions — is a pure function of the state and the op,
// which is what lets a journal replay reproduce a run exactly. Jobs reaching
// a terminal state retire into the terminal ring at once; publishing that to
// waiters is the live owner's business.
func (s *state) apply(o op) (fx effects, err error) {
	switch o.K {
	case opSubmit:
		j := o.job
		if j == nil {
			if o.Spec == nil {
				return fx, fmt.Errorf("submit op for job %d carries no spec", o.Job)
			}
			j = jobFromWire(o.Job, o.Spec, s.rebuild)
		}
		j.ID = o.Job
		s.nextID = max(s.nextID, o.Job)
		if fx.reject = s.submit(j); fx.reject == nil {
			j.state = JobQueued
			s.jobs[j.ID] = j
			s.dedup.put(o.Key, j.ID)
		}
	case opDispatch:
		fx.dispatched, fx.dropped = s.dispatch()
		for _, j := range fx.dropped {
			s.retire(j, true, ErrDeadlineExpired.Error())
		}
		if fx.dispatched != nil {
			fx.dispatched.state = JobRunning
		}
	case opComplete, opPreempt:
		j := s.jobs[o.Job]
		if j == nil {
			return fx, fmt.Errorf("%s op for unknown job %d", opNames[o.K], o.Job)
		}
		s.free++
		delete(s.running, j.ID)
		if o.K == opPreempt {
			j.enqueueTick = s.tick
			j.state = JobQueued
			s.queued[j.Spec.Tenant]++
			s.q.Requeue(j)
			s.record(KindPreempt, j, int64(j.attempts), 0, "")
			break
		}
		var failed int64
		if o.Fail {
			failed = 1
		}
		s.record(KindComplete, j, failed, 0, "")
		s.retire(j, o.Fail, o.Msg)
	case opAdvance:
		for i := int64(0); i < max(o.N, 1); i++ {
			s.tick++
			s.adm.refill()
		}
	case opDrain:
		s.draining = true
		s.record(KindDrain, nil, int64(s.q.Len()), int64(len(s.running)), "")
	case opCapacity:
		s.adm.setCapacity(o.Cap)
	case opAbandon:
		// Every queued job is rejected with reason "shutdown".
		for j := s.q.Pop(); j != nil; j = s.q.Pop() {
			s.queued[j.Spec.Tenant]--
			s.record(KindReject, j, 0, 0, ReasonShutdown)
			s.retire(j, true, ErrSchedulerClosed.Error())
			fx.dropped = append(fx.dropped, j)
		}
	default:
		return fx, fmt.Errorf("unknown op kind %d", o.K)
	}
	return fx, nil
}

// record takes one decision: it advances the sequence and either renders and
// appends the decision to the log, when kept, or counts it for the job's
// tenant — the counts summarize what a log would hold. a, b and reason are
// the kind's details (see detail).
func (s *state) record(k Kind, j *Job, a, b int64, reason string) {
	s.seq++
	if s.keepLog {
		d := Decision{Seq: s.seq, Tick: s.tick, Kind: k, Detail: detail(k, a, b, reason)}
		if j != nil {
			d.Job, d.Tenant = j.ID, j.Spec.Tenant
		}
		s.log = append(s.log, d)
	} else if j != nil {
		s.count(k, j.Spec.Tenant, a != 0)
	}
}

// count adds one decision of kind k to tenant's counts; failed says a
// complete decision was a failure.
func (s *state) count(k Kind, tenant string, failed bool) {
	c := s.counts[tenant]
	if c == nil {
		c = &tenantCounts{}
		s.counts[tenant] = c
	}
	switch k {
	case KindEnqueue:
		c.Enqueued++
	case KindAdmit:
		c.Admitted++
	case KindReject:
		c.Rejected++
	case KindComplete:
		if failed {
			c.Failed++
		} else {
			c.Completed++
		}
	case KindExpire:
		c.Failed++
	}
}

// submit runs admission for j: on success the job joins the queue; on
// backpressure the RejectError carries the reason and a retry-after hint.
func (s *state) submit(j *Job) *RejectError {
	tenant := j.Spec.Tenant
	reject := func(reason string, retry int64) *RejectError {
		s.record(KindReject, j, 0, retry, reason)
		return &RejectError{Tenant: tenant, Reason: reason, RetryAfterTicks: retry}
	}
	if s.draining {
		return reject(ReasonDraining, 0)
	}
	if s.q.Len() >= s.adm.maxQueued() {
		// The queue drains at roughly slots jobs per service interval;
		// hint one queue's-worth of ticks, floored at 1.
		return reject(ReasonQueueFull, int64(s.q.Len()/s.slots)+1)
	}
	if tq := s.adm.quota(tenant).MaxQueued; tq > 0 && s.queued[tenant] >= tq {
		return reject(ReasonTenantQueueFull, int64(s.queued[tenant]/s.slots)+1)
	}
	if ok, reason, retry := s.adm.take(tenant); !ok {
		return reject(reason, retry)
	}
	j.enqueueTick = s.tick
	s.queued[tenant]++
	s.q.Push(j)
	s.record(KindEnqueue, j, int64(j.Spec.Priority), j.Spec.cost(), "")
	return nil
}

// dispatch pops the next runnable job onto a free slot. Jobs whose deadline
// lapsed in queue are dropped (expired, not run) and returned. Returns a nil
// job when no slot is free or the queue is empty.
func (s *state) dispatch() (j *Job, expired []*Job) {
	for s.free > 0 {
		jb := s.q.Pop()
		if jb == nil {
			return nil, expired
		}
		s.queued[jb.Spec.Tenant]--
		waited := s.tick - jb.enqueueTick
		if dl := jb.Spec.Deadline; dl > 0 && waited > dl {
			s.record(KindExpire, jb, dl, waited, "")
			expired = append(expired, jb)
			continue
		}
		jb.admitTick = s.tick
		jb.attempts++
		s.free--
		s.running[jb.ID] = jb
		s.record(KindAdmit, jb, waited, 0, "")
		return jb, expired
	}
	return nil, expired
}

// retire moves a finished job from the jobs table into the terminal ring.
func (s *state) retire(j *Job, failed bool, msg string) {
	delete(s.jobs, j.ID)
	s.terminal.add(TerminalJob{
		ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
		Failed: failed, Attempts: j.attempts, Error: msg,
	}, j)
}

// idle reports no queued and no running work.
func (s *state) idle() bool { return s.q.Len() == 0 && len(s.running) == 0 }
