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
// Every change to the scheduler state — submit, dispatch, complete, preempt,
// tick advance, capacity change, drain, shutdown-abandon — is one op, and
// journal.apply is the one path that applies an op and writes it, so journal
// order is state order by construction. state.apply is deterministic, so
// replaying the op stream through a fresh state rebuilds byte-identical
// state: the same decisions (seq for seq), the same queue order, the same
// token-bucket levels, the same running set. A periodic snapshot captures the
// whole state (queue + token buckets + live jobs + terminal ring + dedup
// table + tenant counts, or the decision log for an owner that keeps one) so
// replay cost is bounded by snapshot cadence, and wal compaction bounds disk.
//
// Writing a record does not sync it. Whoever acknowledges an effect of an op
// — the submit's returned ID, a job's terminal state — first waits, outside
// the owner's lock, for the record's seq to be durable per the fsync policy
// (commit). Ops that acknowledge nothing (dispatch, preempt, capacity,
// advance, a rejected submit) are never waited on; they ride the next
// commit. That is safe because the log is prefix-durable:
//
//	acked ⇒ durable ≥ its seq; recovered state = a prefix of the journal;
//	therefore acked effects ⊆ recovered state.
//
// A crash loses only unacknowledged work, and the deterministic continuation
// redoes it identically — the property the crash-injection harness locks in
// byte for byte.
//
// Empty ticks are coalesced: an advance is only counted, and the next written
// op flushes the backlog as a single opAdvance{N}. Ticks that produced no op
// before a crash are unobservable in the decisions, so losing them keeps
// recovery self-consistent.

// opKind enumerates journaled state operations.
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

// op is one state operation and its journal record (JSON-encoded into a wal
// record).
type op struct {
	K    opKind    `json:"k"`
	Job  JobID     `json:"j,omitempty"`
	Spec *WireSpec `json:"s,omitempty"` // submit: the job's durable form
	Fail bool      `json:"f,omitempty"` // complete: job failed
	Msg  string    `json:"m,omitempty"` // complete: error message
	N    int64     `json:"n,omitempty"` // advance: coalesced tick count
	Cap  float64   `json:"c,omitempty"` // capacity: new factor
	Key  string    `json:"y,omitempty"` // submit: idempotency key

	// job is a submit's job as its owner built it (the live scheduler's
	// carries its body); Spec is derived from it when the op is written, and
	// replay builds the job from Spec.
	job *Job
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

// retiredJob is a terminal ring entry: the durable terminal state, plus the
// *Job it came from when the job retired in this process (nil when restored
// from a snapshot).
type retiredJob struct {
	TerminalJob
	job *Job
}

// terminalRing is the bounded retention of terminal job states, oldest
// evicted first; a zero cap retains nothing. Evicted IDs still answer "gone"
// (410) rather than "unknown" (404) because IDs are dense: anything at or
// below the highest assigned ID existed.
type terminalRing struct {
	cap   int
	m     map[JobID]retiredJob
	order []JobID
}

func newTerminalRing(capacity int) *terminalRing {
	return &terminalRing{cap: capacity, m: map[JobID]retiredJob{}}
}

// add retains tj (and j, nil allowed), evicting the oldest past the cap.
func (r *terminalRing) add(tj TerminalJob, j *Job) {
	if _, ok := r.m[tj.ID]; ok || r.cap == 0 {
		return
	}
	r.m[tj.ID] = retiredJob{tj, j}
	r.order = append(r.order, tj.ID)
	for len(r.order) > r.cap {
		delete(r.m, r.order[0])
		r.order = r.order[1:]
	}
}

func (r *terminalRing) get(id JobID) (retiredJob, bool) {
	rj, ok := r.m[id]
	return rj, ok
}

func (r *terminalRing) list() []TerminalJob {
	out := make([]TerminalJob, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.m[id].TerminalJob)
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

	Counts   map[string]*tenantCounts `json:"counts,omitempty"`
	Terminal []TerminalJob            `json:"terminal,omitempty"`
	Dedup    []dedupEntry             `json:"dedup,omitempty"`

	// Log is the decision log, present only for an owner that keeps one
	// (the trace driver): the live scheduler's snapshot stays bounded. A
	// live snapshot from before Counts existed has the log instead.
	Log []Decision `json:"log,omitempty"`
}

// encode serializes the whole state as a snapshot payload.
func (s *state) encode() ([]byte, error) {
	qstate, err := s.q.SaveState()
	if err != nil {
		return nil, fmt.Errorf("sched: save queue state: %w", err)
	}
	snap := &snapshotState{
		Tick:      s.tick,
		Seq:       s.seq,
		Draining:  s.draining,
		Capacity:  s.adm.capacity,
		NextID:    s.nextID,
		Buckets:   s.adm.bucketLevels(),
		QueueName: s.q.Name(),
		Queue:     qstate,
		Counts:    s.counts,
		Terminal:  s.terminal.list(),
		Dedup:     s.dedup.list(),
		Log:       s.log,
	}
	ids := make([]JobID, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := s.jobs[id]
		_, running := s.running[id]
		snap.Jobs = append(snap.Jobs, snapJob{
			ID:          id,
			Spec:        *wireFromJob(j),
			EnqueueTick: j.enqueueTick,
			AdmitTick:   j.admitTick,
			Attempts:    j.attempts,
			Running:     running,
		})
	}
	return json.Marshal(snap)
}

// load restores a snapshot payload into a fresh state.
func (s *state) load(payload []byte) error {
	var snap snapshotState
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("sched: decode snapshot: %w", err)
	}
	if snap.QueueName != s.q.Name() {
		return fmt.Errorf("sched: journal was written with queue %q, configured queue is %q", snap.QueueName, s.q.Name())
	}
	s.tick, s.seq, s.draining, s.nextID = snap.Tick, snap.Seq, snap.Draining, snap.NextID
	s.adm.setCapacity(snap.Capacity)
	s.adm.restoreBuckets(snap.Buckets)
	switch {
	case s.keepLog:
		s.log = snap.Log
	case snap.Counts != nil:
		s.counts = snap.Counts
	default:
		// A snapshot from before counts were kept carries the log instead.
		for _, d := range snap.Log {
			if d.Job > 0 {
				s.count(d.Kind, d.Tenant, d.Detail == "err")
			}
		}
	}
	for _, sj := range snap.Jobs {
		ws := sj.Spec
		j := jobFromWire(sj.ID, &ws, s.rebuild)
		j.enqueueTick, j.admitTick, j.attempts = sj.EnqueueTick, sj.AdmitTick, sj.Attempts
		s.jobs[sj.ID] = j
		if sj.Running {
			j.state = JobRunning
			s.running[sj.ID] = j
			s.free--
		} else {
			j.state = JobQueued
			s.queued[ws.Tenant]++
		}
	}
	// Fewer executors than running jobs in the snapshot (the pool shrank
	// across the restart): the surplus jobs still resume, and slots simply
	// stay saturated until they finish.
	s.free = max(s.free, 0)
	if err := s.q.LoadState(s.jobs, snap.Queue); err != nil {
		return err
	}
	for _, tj := range snap.Terminal {
		s.terminal.add(tj, nil)
	}
	for _, de := range snap.Dedup {
		s.dedup.put(de.Key, de.Job)
	}
	return nil
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
	// Decisions is the decision count after recovery.
	Decisions int64 `json:"decisions,omitempty"`
}

// recover rebuilds a fresh state from a wal recovery: snapshot load, then
// every later record replayed through apply. The state must be configured
// with the queue discipline the journal was written with. A replayed dispatch
// choosing a different job than the journal recorded means the journal and
// the configuration have diverged, and is an error.
func (s *state) recover(rec *wal.Recovered) (RecoveryReport, error) {
	rep := RecoveryReport{
		Recovered:       !rec.Empty(),
		TruncatedBytes:  rec.TruncatedBytes,
		DroppedSegments: rec.DroppedSegments,
	}
	if rec.Snapshot != nil {
		if err := s.load(rec.Snapshot); err != nil {
			return rep, err
		}
		rep.SnapshotLoaded, rep.SnapshotSeq = true, rec.SnapshotSeq
	}
	for i, payload := range rec.Records {
		var o op
		if err := json.Unmarshal(payload, &o); err != nil {
			return rep, fmt.Errorf("sched: decode journal record %d: %w", i, err)
		}
		fx, err := s.apply(o)
		var got JobID
		if fx.dispatched != nil {
			got = fx.dispatched.ID
		}
		if err == nil && o.K == opDispatch && got != o.Job {
			err = fmt.Errorf("replayed dispatch chose job %d, journal says %d", got, o.Job)
		}
		if err != nil {
			return rep, fmt.Errorf("sched: replay record %d (%s): %w", i, opNames[o.K], err)
		}
		rep.ReplayedOps++
	}
	rep.RequeuedJobs, rep.ResumedJobs, rep.Decisions = s.q.Len(), len(s.running), s.seq
	return rep, nil
}

// journal owns the wal.Log plus the scheduler-side bookkeeping around it:
// op encoding, coalesced tick advances, snapshot cadence, and the metrics /
// obs instrumentation. The owner serializes apply and snapshot (the
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

func newJournal(log *wal.Log, o DurableOptions, mx *metrics.Durability, prof *obs.Recorder, timed bool, nowNS func() int64) *journal {
	snapEvery := o.SnapshotEvery
	if snapEvery < 1 {
		snapEvery = defaultSnapshotEvery
	}
	if nowNS == nil {
		epoch := time.Now()
		nowNS = func() int64 { return time.Since(epoch).Nanoseconds() }
	}
	return &journal{log: log, fsync: o.Fsync, snapEvery: snapEvery, mx: mx, timed: timed, prof: prof, nowNS: nowNS}
}

// ack is what an acknowledgement holds between its op's write and the commit
// it waits for: the record's seq and, when the journal's delay of this op is
// still to be observed (acked), the clock at the start of the write.
type ack struct {
	seq   uint64
	start int64
	timed bool
}

// apply applies o to st and writes its record without syncing it — the one
// path through which any owner changes its state. Advances are only counted
// (the next record flushes them), and a dispatch that found nothing to do is
// not written. wait says the owner acknowledges effects itself (the live
// scheduler rather than the trace driver's per-tick commit); the record is
// then waited on when it hands out an acknowledgement — an accepted job ID or
// a terminal state — and its wal_append_ns sample is taken by acked once
// durable instead of at once. The snapshot is taken here when its cadence is
// due. A nil journal only applies.
func (jn *journal) apply(st *state, o op, wait bool) (effects, ack, error) {
	fx, err := st.apply(o)
	if err != nil || jn == nil {
		return fx, ack{}, err
	}
	switch o.K {
	case opAdvance:
		jn.pendingTicks += max(o.N, 1)
		return fx, ack{}, nil
	case opDispatch:
		if fx.dispatched == nil && len(fx.dropped) == 0 {
			return fx, ack{}, nil
		}
		if fx.dispatched != nil {
			o.Job = fx.dispatched.ID
		}
	case opSubmit:
		if o.Spec == nil {
			o.Spec = wireFromJob(o.job)
		}
	}
	wait = wait && (o.K == opComplete || len(fx.dropped) > 0 || o.K == opSubmit && fx.reject == nil)
	if jn.pendingTicks > 0 {
		// The advance and the op are one write burst a single fsync covers.
		n := jn.pendingTicks
		jn.pendingTicks = 0
		if _, err := jn.write(op{K: opAdvance, N: n}, false); err != nil {
			return fx, ack{}, err
		}
	}
	a, err := jn.write(o, wait)
	if err == nil && jn.sinceSnap >= jn.snapEvery {
		err = jn.snapshot(st)
	}
	return fx, a, err
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

// snapshot writes st as the journal's snapshot, covering every record
// written so far, and resets the cadence. Any coalesced advances are simply
// discarded: the snapshot's tick already includes them.
func (jn *journal) snapshot(st *state) error {
	jn.pendingTicks = 0
	payload, err := st.encode()
	if err != nil {
		return err
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
