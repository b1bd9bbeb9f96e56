package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/wal"
)

// The job journal: scheduler durability as re-playable values.
//
// Every mutation of the policy core — submit, dispatch, complete, preempt,
// tick advance, capacity change, drain, shutdown-abandon — is one journaled
// op. The core is deterministic, so replaying the op stream through a fresh
// core rebuilds byte-identical state: the same decision log (seq for seq),
// the same queue order, the same token-bucket levels, the same running set.
// A periodic snapshot captures the whole state (queue + tenant quotas +
// token buckets + live jobs + decision history + terminal ring + dedup
// table) so replay cost is bounded by snapshot cadence, and wal compaction
// bounds disk.
//
// Journaling an op is two steps. The owner writes the record under its own
// serialization, right after the core applied the op, so journal order is
// core order (logOp: frame + write(2), no fsync). Whoever acknowledges an
// effect of that op — the submit's returned ID, a job's terminal state —
// first waits, outside the owner's lock, for the record's seq to be durable
// per the fsync policy (commit). Ops that acknowledge nothing (dispatch,
// preempt, capacity, advance, a rejected submit) are never waited on; they
// ride the next commit. That is safe because the log is prefix-durable:
//
//	acked ⇒ durable ≥ its seq; recovered state = a prefix of the journal;
//	therefore acked effects ⊆ recovered state.
//
// A crash loses only unacknowledged work, and the deterministic continuation
// redoes it identically — the property the crash-injection harness locks in
// byte for byte.
//
// Empty ticks are coalesced: the tick loop only counts advances, and the
// next journaled op flushes them as a single opAdvance{N}. Ticks that
// produced no op before a crash are unobservable in the decision log, so
// losing them keeps recovery self-consistent.

// opKind enumerates journaled core operations.
type opKind uint8

const (
	opSubmit opKind = iota + 1
	opDispatch
	opComplete
	opPreempt
	opAdvance
	opDrain
	opCapacity
	opAbandon
)

var opNames = map[opKind]string{
	opSubmit: "submit", opDispatch: "dispatch", opComplete: "complete",
	opPreempt: "preempt", opAdvance: "advance", opDrain: "drain",
	opCapacity: "capacity", opAbandon: "abandon",
}

// op is one journal record (JSON-encoded into a wal record).
type op struct {
	K    opKind    `json:"k"`
	Job  JobID     `json:"j,omitempty"`
	Spec *WireSpec `json:"s,omitempty"` // submit: the job's durable form
	Fail bool      `json:"f,omitempty"` // complete: job failed
	Msg  string    `json:"m,omitempty"` // complete: error message
	N    int64     `json:"n,omitempty"` // advance: coalesced tick count
	Cap  float64   `json:"c,omitempty"` // capacity: new factor
	Key  string    `json:"y,omitempty"` // submit: idempotency key
	Arr  int       `json:"a,omitempty"` // submit: trace arrival index
}

// WireSpec is a job's durable form: everything needed to re-create its
// JobSpec after a restart. Run bodies are Go closures and cannot be
// journaled; jobs submitted with a wire Request (the HTTP path) have their
// body rebuilt through the kind registry at recovery, while purely
// programmatic jobs recover as state only — if still queued or running at
// the crash they fail with ErrNotRecoverable when next dispatched.
type WireSpec struct {
	Tenant   string         `json:"tenant,omitempty"`
	Priority int            `json:"priority,omitempty"`
	Cost     int64          `json:"cost,omitempty"`
	Deadline int64          `json:"deadline,omitempty"`
	Service  int64          `json:"service,omitempty"` // trace mode: service ticks
	Request  *SubmitRequest `json:"request,omitempty"` // live mode: rebuildable body
}

// ErrNotRecoverable marks a recovered job whose body could not be rebuilt:
// it was submitted programmatically (no wire-form Request), so only its
// scheduling state survived the restart.
var ErrNotRecoverable = errors.New("sched: job body not recoverable after restart")

// wireFromJob extracts a job's durable form.
func wireFromJob(j *Job) *WireSpec {
	return &WireSpec{
		Tenant:   j.Spec.Tenant,
		Priority: j.Spec.Priority,
		Cost:     j.Spec.Cost,
		Deadline: j.Spec.Deadline,
		Service:  j.service,
		Request:  j.Spec.Request,
	}
}

// jobFromWire re-creates a job from its durable form. rebuild (nil allowed)
// maps the wire Request back to a runnable body.
func jobFromWire(id JobID, ws *WireSpec, rebuild func(*SubmitRequest) RunFunc) *Job {
	j := &Job{
		ID: id,
		Spec: JobSpec{
			Tenant:   ws.Tenant,
			Priority: ws.Priority,
			Cost:     ws.Cost,
			Deadline: ws.Deadline,
			Request:  ws.Request,
		},
		service: ws.Service,
		done:    make(chan struct{}),
	}
	if ws.Request != nil && rebuild != nil {
		j.Spec.Run = rebuild(ws.Request)
	}
	return j
}

// TerminalJob is one finished job's retained state: what GET /jobs/{id}
// serves after the job left the live table, across restarts.
type TerminalJob struct {
	ID       JobID  `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// terminalRing is the bounded retention of terminal job states, oldest
// evicted first. Evicted IDs still answer "gone" (410) rather than
// "unknown" (404) because IDs are dense: anything at or below the highest
// assigned ID existed.
type terminalRing struct {
	cap   int
	m     map[JobID]TerminalJob
	order []JobID
}

func newTerminalRing(capacity int) *terminalRing {
	if capacity < 1 {
		capacity = doneRetention
	}
	return &terminalRing{cap: capacity, m: map[JobID]TerminalJob{}}
}

// add retains tj, returning the IDs evicted to stay within the cap.
func (r *terminalRing) add(tj TerminalJob) (evicted []JobID) {
	if _, ok := r.m[tj.ID]; ok {
		return nil
	}
	r.m[tj.ID] = tj
	r.order = append(r.order, tj.ID)
	for len(r.order) > r.cap {
		old := r.order[0]
		delete(r.m, old)
		r.order = r.order[1:]
		evicted = append(evicted, old)
	}
	return evicted
}

func (r *terminalRing) get(id JobID) (TerminalJob, bool) {
	tj, ok := r.m[id]
	return tj, ok
}

func (r *terminalRing) list() []TerminalJob {
	out := make([]TerminalJob, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.m[id])
	}
	return out
}

// dedupRetention bounds the idempotency-key table.
const dedupRetention = 8192

// dedupEntry is one retained idempotency mapping.
type dedupEntry struct {
	Key string `json:"key"`
	Job JobID  `json:"job"`
}

// dedupRing is the bounded idempotency-key table: key → job ID, oldest key
// evicted first. Journaled through submit ops and snapshots, so a client
// resubmitting after a server crash gets its original job back.
type dedupRing struct {
	cap   int
	m     map[string]JobID
	order []string
}

func newDedupRing() *dedupRing { return &dedupRing{cap: dedupRetention, m: map[string]JobID{}} }

func (r *dedupRing) get(key string) (JobID, bool) {
	id, ok := r.m[key]
	return id, ok
}

func (r *dedupRing) put(key string, id JobID) {
	if key == "" {
		return
	}
	if _, ok := r.m[key]; ok {
		return
	}
	r.m[key] = id
	r.order = append(r.order, key)
	for len(r.order) > r.cap {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *dedupRing) list() []dedupEntry {
	out := make([]dedupEntry, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, dedupEntry{Key: k, Job: r.m[k]})
	}
	return out
}

// snapJob is one live (queued or running) job in a snapshot.
type snapJob struct {
	ID          JobID    `json:"id"`
	Spec        WireSpec `json:"spec"`
	EnqueueTick int64    `json:"enqueue_tick"`
	AdmitTick   int64    `json:"admit_tick,omitempty"`
	Attempts    int      `json:"attempts,omitempty"`
	Running     bool     `json:"running,omitempty"`
}

// snapshotState is the full durable scheduler state at one journal seq.
type snapshotState struct {
	Tick     int64   `json:"tick"`
	Seq      int64   `json:"seq"`
	Draining bool    `json:"draining,omitempty"`
	Capacity float64 `json:"capacity"`
	NextID   JobID   `json:"next_id"`

	Buckets map[string]float64 `json:"buckets,omitempty"`

	QueueName string          `json:"queue"`
	Queue     json.RawMessage `json:"queue_state"`
	Jobs      []snapJob       `json:"jobs,omitempty"`

	Log      []Decision    `json:"log,omitempty"`
	Terminal []TerminalJob `json:"terminal,omitempty"`
	Dedup    []dedupEntry  `json:"dedup,omitempty"`

	// Aux is owner-private state: the trace driver parks its arrival cursor
	// here; the live scheduler leaves it empty.
	Aux json.RawMessage `json:"aux,omitempty"`
}

// journal owns the wal.Log plus the scheduler-side bookkeeping around it:
// op encoding, coalesced tick advances, snapshot cadence, and the metrics /
// obs instrumentation. The owner serializes logOp, tick and snapshot (the
// scheduler under its mutex, the trace driver single-threaded); commit and
// syncStats run concurrently with them, outside the owner's lock.
type journal struct {
	log       *wal.Log
	fsync     wal.SyncPolicy
	snapEvery int

	pendingTicks int64
	sinceSnap    int

	mx    *metrics.Durability
	timed bool
	prof  *obs.Recorder
	nowNS func() int64

	statMu sync.Mutex
	last   wal.Stats // last wal stats folded into mx; guarded by statMu
}

// defaultSnapshotEvery is the snapshot cadence in journaled ops.
const defaultSnapshotEvery = 4096

func newJournal(log *wal.Log, o DurableOptions, timed bool, nowNS func() int64) *journal {
	snapEvery := o.SnapshotEvery
	if snapEvery < 1 {
		snapEvery = defaultSnapshotEvery
	}
	if nowNS == nil {
		epoch := time.Now()
		nowNS = func() int64 { return time.Since(epoch).Nanoseconds() }
	}
	return &journal{log: log, fsync: o.Fsync, snapEvery: snapEvery, mx: o.Metrics, timed: timed, prof: o.Prof, nowNS: nowNS}
}

// tick counts one empty-tick advance; the next logOp flushes the backlog as
// a single coalesced advance record.
func (jn *journal) tick() { jn.pendingTicks++ }

// ack is what an acknowledgement holds between its op's write and the commit
// it waits for: the record's seq and, when the journal's delay of this op is
// still to be observed (acked), the clock at the start of the write.
type ack struct {
	seq   uint64
	start int64
	timed bool
}

// logOp writes one op, after any coalesced advance, without syncing: the
// advance and the op are one write burst that a single fsync covers. wait
// says an acknowledgement will commit the returned ack; its wal_append_ns
// sample is then taken by acked once durable, and at once otherwise.
func (jn *journal) logOp(o op, wait bool) (ack, error) {
	if jn.pendingTicks > 0 {
		n := jn.pendingTicks
		jn.pendingTicks = 0
		if _, err := jn.write(op{K: opAdvance, N: n}, false); err != nil {
			return ack{}, err
		}
	}
	return jn.write(o, wait)
}

func (jn *journal) write(o op, wait bool) (ack, error) {
	payload, err := json.Marshal(o)
	if err != nil {
		return ack{}, fmt.Errorf("sched: journal encode: %w", err)
	}
	var start int64
	if jn.timed {
		start = jn.nowNS()
	}
	seq, err := jn.log.Write(payload)
	if err != nil {
		return ack{}, fmt.Errorf("sched: journal: %w", err)
	}
	a := ack{seq: seq}
	jn.sinceSnap++
	if jn.mx != nil {
		jn.mx.Appends.Inc()
		jn.mx.AppendedBytes.Add(int64(len(payload)))
		jn.mx.SnapshotAgeOps.Set(int64(jn.sinceSnap))
		if jn.timed {
			if wait {
				a.start, a.timed = start, true
			} else {
				jn.mx.AppendNS.Observe(jn.nowNS() - start)
			}
		}
	}
	if jn.prof != nil {
		jn.prof.Mark(0, obs.StageJournal, "", opNames[o.K], domain.Point{}, jn.nowNS())
	}
	return a, nil
}

// commit returns once record seq is durable per the fsync policy, sharing
// the fsync with every concurrent committer. Called without the owner's lock.
func (jn *journal) commit(seq uint64) error {
	var start int64
	if jn.timed {
		start = jn.nowNS()
	}
	if err := jn.log.Commit(seq); err != nil {
		return fmt.Errorf("sched: journal commit: %w", err)
	}
	if jn.mx != nil {
		if jn.timed {
			jn.mx.CommitWaitNS.Observe(jn.nowNS() - start)
		}
		jn.syncStats()
	}
	return nil
}

// acked observes how long the journal delayed an acknowledged op: from the
// start of its write to now, when its commit has returned.
func (jn *journal) acked(a ack) {
	if a.timed {
		jn.mx.AppendNS.Observe(jn.nowNS() - a.start)
	}
}

// syncIdle bounds what SyncInterval can lose on an idle log: called once per
// owner tick, it syncs a tail that has sat unsynced for Interval. The other
// policies need no help — always commits per acknowledgement, never never.
func (jn *journal) syncIdle() error {
	if jn.fsync != wal.SyncInterval {
		return nil
	}
	seq := jn.log.LastSeq()
	if seq == 0 {
		return nil
	}
	if err := jn.log.Commit(seq); err != nil {
		return fmt.Errorf("sched: journal idle sync: %w", err)
	}
	jn.syncStats()
	return nil
}

// wantSnapshot reports the cadence is due.
func (jn *journal) wantSnapshot() bool { return jn.sinceSnap >= jn.snapEvery }

// snapshot writes st as the journal's snapshot and resets the cadence. Any
// coalesced advances are simply discarded: the snapshot's tick already
// includes them.
func (jn *journal) snapshot(st *snapshotState) error {
	jn.pendingTicks = 0
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("sched: snapshot encode: %w", err)
	}
	var start int64
	if jn.prof != nil || jn.timed {
		start = jn.nowNS()
	}
	if err := jn.log.Snapshot(payload); err != nil {
		return fmt.Errorf("sched: snapshot: %w", err)
	}
	jn.sinceSnap = 0
	if jn.mx != nil {
		jn.mx.Snapshots.Inc()
		jn.mx.SnapshotAgeOps.Set(0)
		jn.syncStats()
	}
	if jn.prof != nil {
		jn.prof.Span(0, obs.StageSnapshot, "", fmt.Sprintf("seq:%d", jn.log.SnapshotSeq()), domain.Point{}, start, jn.nowNS())
	}
	return nil
}

// syncStats folds the wal's cumulative stats into the metric families:
// deltas onto the fsync/rotation counters, the segment count onto its gauge,
// and the records each new commit fsync covered onto wal_commit_records. It
// runs after each commit and snapshot — where fsyncs happen; a rotation
// inside a write is folded in by the next — from committers concurrently, so
// the delta base has its own lock. Several commit fsyncs between two calls
// (rare: every committer calls this as its commit returns) are observed as
// that many samples sharing the records evenly, which keeps the histogram's
// count and sum exact.
func (jn *journal) syncStats() {
	if jn.mx == nil {
		return
	}
	jn.statMu.Lock()
	defer jn.statMu.Unlock()
	st := jn.log.Stats()
	jn.mx.Fsyncs.Add(st.Fsyncs - jn.last.Fsyncs)
	jn.mx.Rotations.Add(st.Rotations - jn.last.Rotations)
	jn.mx.Segments.Set(int64(st.Segments))
	if n := st.CommitFsyncs - jn.last.CommitFsyncs; n > 0 {
		records := st.CommitRecords - jn.last.CommitRecords
		for ; n > 0; n-- {
			share := records / n
			jn.mx.CommitRecords.Observe(share)
			records -= share
		}
	}
	jn.last = st
}

// captureSnapshot serializes the owner's full state. Caller holds whatever
// serializes core access.
func captureSnapshot(c *policy, jobs map[JobID]*Job, nextID JobID, capacity float64,
	term *terminalRing, ded *dedupRing, aux json.RawMessage) (*snapshotState, error) {
	sq, ok := c.q.(StatefulQueue)
	if !ok {
		return nil, fmt.Errorf("sched: queue %q does not implement StatefulQueue; durability needs a stateful discipline", c.q.Name())
	}
	qstate, err := sq.SaveState()
	if err != nil {
		return nil, fmt.Errorf("sched: save queue state: %w", err)
	}
	st := &snapshotState{
		Tick:      c.tick,
		Seq:       c.seq,
		Draining:  c.draining,
		Capacity:  capacity,
		NextID:    nextID,
		Buckets:   c.adm.bucketLevels(),
		QueueName: c.q.Name(),
		Queue:     qstate,
		Log:       c.log,
		Aux:       aux,
	}
	if term != nil {
		st.Terminal = term.list()
	}
	if ded != nil {
		st.Dedup = ded.list()
	}
	ids := make([]JobID, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := jobs[id]
		_, running := c.running[id]
		st.Jobs = append(st.Jobs, snapJob{
			ID:          id,
			Spec:        *wireFromJob(j),
			EnqueueTick: j.enqueueTick,
			AdmitTick:   j.admitTick,
			Attempts:    j.attempts,
			Running:     running,
		})
	}
	return st, nil
}

// RecoveryReport summarizes what startup recovery found and rebuilt — the
// /statusz durability panel's recovery section.
type RecoveryReport struct {
	// Recovered reports that durable state existed (snapshot or records).
	Recovered bool `json:"recovered"`
	// SnapshotLoaded / SnapshotSeq describe the snapshot used, if any.
	SnapshotLoaded bool   `json:"snapshot_loaded,omitempty"`
	SnapshotSeq    uint64 `json:"snapshot_seq,omitempty"`
	// ReplayedOps counts journal records replayed after the snapshot.
	ReplayedOps int `json:"replayed_ops,omitempty"`
	// TruncatedBytes / DroppedSegments describe torn-tail cleanup.
	TruncatedBytes  int64 `json:"truncated_bytes,omitempty"`
	DroppedSegments int   `json:"dropped_segments,omitempty"`
	// RequeuedJobs / ResumedJobs count queued jobs restored into the queue
	// and running jobs handed back to executors.
	RequeuedJobs int `json:"requeued_jobs,omitempty"`
	ResumedJobs  int `json:"resumed_jobs,omitempty"`
	// Decisions is the decision-log length after recovery.
	Decisions int64 `json:"decisions,omitempty"`
}

// recoveredCore is a policy core (plus owner bookkeeping) rebuilt from a
// wal recovery: snapshot load, then op replay.
type recoveredCore struct {
	core     *policy
	jobs     map[JobID]*Job
	nextID   JobID
	capacity float64
	terminal *terminalRing
	dedup    *dedupRing
	aux      json.RawMessage
	// maxArrival is the highest trace arrival index seen in replayed submit
	// ops (-1 when none) — the trace driver resumes after max(aux, this).
	maxArrival int
	report     RecoveryReport
}

// rebuildCore reconstructs scheduler state from a wal recovery. q must be a
// fresh instance of the same discipline the journal was written with;
// rebuild (nil allowed) maps wire requests back to runnable bodies.
func rebuildCore(rec *wal.Recovered, q Queue, adm *admission, slots int,
	rebuild func(*SubmitRequest) RunFunc, termCap int) (*recoveredCore, error) {
	if q == nil {
		q = NewFIFO()
	}
	rc := &recoveredCore{
		jobs:       map[JobID]*Job{},
		capacity:   1,
		terminal:   newTerminalRing(termCap),
		dedup:      newDedupRing(),
		maxArrival: -1,
		report: RecoveryReport{
			Recovered:       !rec.Empty(),
			TruncatedBytes:  rec.TruncatedBytes,
			DroppedSegments: rec.DroppedSegments,
		},
	}
	c := newPolicy(q, adm, slots)

	if rec.Snapshot != nil {
		var st snapshotState
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return nil, fmt.Errorf("sched: decode snapshot: %w", err)
		}
		if st.QueueName != q.Name() {
			return nil, fmt.Errorf("sched: journal was written with queue %q, configured queue is %q", st.QueueName, q.Name())
		}
		c.tick, c.seq, c.draining, c.log = st.Tick, st.Seq, st.Draining, st.Log
		rc.capacity = st.Capacity
		c.adm.setCapacity(st.Capacity)
		c.adm.restoreBuckets(st.Buckets)
		rc.nextID = st.NextID
		for _, sj := range st.Jobs {
			ws := sj.Spec
			j := jobFromWire(sj.ID, &ws, rebuild)
			j.enqueueTick, j.admitTick, j.attempts = sj.EnqueueTick, sj.AdmitTick, sj.Attempts
			rc.jobs[sj.ID] = j
			if sj.Running {
				j.state = JobRunning
				c.running[sj.ID] = j
				c.free--
			} else {
				j.state = JobQueued
				c.queued[ws.Tenant]++
			}
		}
		if c.free < 0 {
			// Fewer executors than running jobs in the snapshot (the pool
			// shrank across the restart): the surplus jobs still resume, and
			// slots simply stay saturated until they finish.
			c.free = 0
		}
		sq, ok := q.(StatefulQueue)
		if !ok {
			return nil, fmt.Errorf("sched: queue %q does not implement StatefulQueue", q.Name())
		}
		if err := sq.LoadState(rc.jobs, st.Queue); err != nil {
			return nil, err
		}
		for _, tj := range st.Terminal {
			rc.terminal.add(tj)
		}
		for _, de := range st.Dedup {
			rc.dedup.put(de.Key, de.Job)
		}
		rc.aux = st.Aux
		rc.report.SnapshotLoaded = true
		rc.report.SnapshotSeq = rec.SnapshotSeq
	}

	for i, payload := range rec.Records {
		var o op
		if err := json.Unmarshal(payload, &o); err != nil {
			return nil, fmt.Errorf("sched: decode journal record %d: %w", i, err)
		}
		if err := rc.apply(c, o, rebuild); err != nil {
			return nil, fmt.Errorf("sched: replay record %d (%s): %w", i, opNames[o.K], err)
		}
		rc.report.ReplayedOps++
	}

	rc.core = c
	rc.report.RequeuedJobs = c.q.Len()
	rc.report.ResumedJobs = len(c.running)
	rc.report.Decisions = c.seq
	return rc, nil
}

// apply replays one journaled op against the core. The core is
// deterministic, so every derived outcome (the dispatched job, the reject
// reason, the decision details) reproduces exactly; mismatches mean the
// journal and configuration have diverged and are reported as errors.
func (rc *recoveredCore) apply(c *policy, o op, rebuild func(*SubmitRequest) RunFunc) error {
	switch o.K {
	case opSubmit:
		if o.Spec == nil {
			return fmt.Errorf("submit op for job %d carries no spec", o.Job)
		}
		j := jobFromWire(o.Job, o.Spec, rebuild)
		if o.Job > rc.nextID {
			rc.nextID = o.Job
		}
		if o.Arr >= 0 && o.Arr > rc.maxArrival {
			rc.maxArrival = o.Arr
		}
		if _, rej := c.submit(j); rej == nil {
			j.state = JobQueued
			rc.jobs[j.ID] = j
			rc.dedup.put(o.Key, j.ID)
		}
	case opDispatch:
		j, expired := c.dispatch()
		for _, e := range expired {
			rc.finishReplayed(e, true, ErrDeadlineExpired.Error())
		}
		var got JobID
		if j != nil {
			got = j.ID
			j.state = JobRunning
		}
		if got != o.Job {
			return fmt.Errorf("replayed dispatch chose job %d, journal says %d", got, o.Job)
		}
	case opComplete:
		j := rc.jobs[o.Job]
		if j == nil {
			return fmt.Errorf("complete op for unknown job %d", o.Job)
		}
		var jerr error
		if o.Fail {
			msg := o.Msg
			if msg == "" {
				msg = "job failed"
			}
			jerr = errors.New(msg)
		}
		c.complete(j, jerr)
		rc.finishReplayed(j, o.Fail, o.Msg)
	case opPreempt:
		j := rc.jobs[o.Job]
		if j == nil {
			return fmt.Errorf("preempt op for unknown job %d", o.Job)
		}
		c.preempt(j)
		j.state = JobQueued
	case opAdvance:
		n := o.N
		if n < 1 {
			n = 1
		}
		for i := int64(0); i < n; i++ {
			c.advance()
		}
	case opDrain:
		c.drainNow()
	case opCapacity:
		c.adm.setCapacity(o.Cap)
		rc.capacity = o.Cap
	case opAbandon:
		for _, j := range c.abandon() {
			rc.finishReplayed(j, true, ErrSchedulerClosed.Error())
		}
	default:
		return fmt.Errorf("unknown op kind %d", o.K)
	}
	return nil
}

// finishReplayed retires a job that reached a terminal state during replay.
func (rc *recoveredCore) finishReplayed(j *Job, failed bool, msg string) {
	delete(rc.jobs, j.ID)
	if failed {
		j.state = JobFailed
	} else {
		j.state = JobDone
	}
	rc.terminal.add(TerminalJob{
		ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
		Failed: failed, Attempts: j.attempts, Error: msg,
	})
}
