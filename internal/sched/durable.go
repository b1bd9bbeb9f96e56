package sched

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/wal"
)

// DurableOptions configures the scheduler's write-ahead journal. The zero
// value of every field takes the default noted on it; the zero Dir disables
// durability entirely.
type DurableOptions struct {
	// Dir is the journal directory; created if missing.
	Dir string
	// Fsync is the sync policy (wal.SyncInterval by default).
	Fsync wal.SyncPolicy
	// FsyncInterval is the coalescing window for wal.SyncInterval; 0
	// defaults to 100ms.
	FsyncInterval time.Duration
	// SegmentBytes caps one journal segment; 0 defaults to 64 MiB.
	SegmentBytes int64
	// SnapshotEvery is the snapshot cadence in journaled ops; 0 defaults to
	// 4096.
	SnapshotEvery int
	// OpDelay pauses after every journaled op — the pacing knob the
	// crash-injection harness uses to make an external SIGKILL land mid-run.
	OpDelay time.Duration
	// MaxOps stops the run after this many journaled ops — the in-process
	// crash for recovery tests. 0 runs to completion.
	MaxOps int

	// Metrics (optional) receives the wal_*/recover_* families; Prof
	// (optional) receives journal/snapshot/recover spans.
	Metrics *metrics.Durability
	Prof    *obs.Recorder
}

// openDurable opens (or creates) the journal at o.Dir and rebuilds
// scheduler state from it: torn-tail cleanup, newest-snapshot load, op
// replay. It reports recovery metrics and the recover span, and returns the
// ready journal plus the rebuilt core.
func openDurable(o DurableOptions, timed bool, q Queue, adm *admission, slots int,
	rebuild func(*SubmitRequest) RunFunc, termCap int) (*journal, *recoveredCore, error) {
	var nowNS func() int64
	if o.Prof != nil {
		nowNS = o.Prof.Now
	}
	start := int64(0)
	if o.Prof != nil {
		start = o.Prof.Now()
	}
	log, rec, err := wal.Open(o.Dir, wal.Options{
		Fsync:        o.Fsync,
		Interval:     o.FsyncInterval,
		SegmentBytes: o.SegmentBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	rc, err := rebuildCore(rec, q, adm, slots, rebuild, termCap)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	if mx := o.Metrics; mx != nil {
		if rc.report.Recovered {
			mx.Recoveries.Inc()
		}
		if rc.report.SnapshotLoaded {
			mx.SnapshotLoads.Inc()
		}
		mx.ReplayedRecords.Add(int64(rc.report.ReplayedOps))
		mx.TruncatedBytes.Add(rc.report.TruncatedBytes)
		mx.RequeuedJobs.Add(int64(rc.report.RequeuedJobs))
		mx.ResumedJobs.Add(int64(rc.report.ResumedJobs))
	}
	if o.Prof != nil {
		o.Prof.Span(0, obs.StageRecover, "",
			fmt.Sprintf("replayed:%d", rc.report.ReplayedOps), domain.Point{}, start, o.Prof.Now())
	}
	return newJournal(log, o, timed, nowNS), rc, nil
}

// DurableTraceResult is RunTraceDurable's outcome: the trace result (every
// field derived from the decision log, so a crash-resumed run reports
// exactly what the crash-free run would), plus what recovery found and
// whether the trace ran to completion.
type DurableTraceResult struct {
	TraceResult
	// Report describes startup recovery.
	Report RecoveryReport
	// Done reports the trace completed (false when MaxOps stopped it).
	Done bool
	// Ops counts the ops journaled by this run (not including replayed
	// history).
	Ops int
}

// traceAux is the trace driver's owner-private snapshot state: the next
// arrival index.
type traceAux struct {
	Next int `json:"next"`
}

// RunTraceDurable is RunTrace with a write-ahead journal underneath: every
// core op is written as it is decided and the tick's ops are committed
// together before the virtual clock moves past them (the driver's one
// acknowledgement point: the same logOp/commit pair the live scheduler uses,
// with one committer), and on start
// the run resumes from whatever consistent prefix the journal holds. Killing
// the process at any point and re-running with the same (trace, config, dir)
// converges on a decision log byte-identical to the crash-free run — the
// determinism contract the crash-injection harness locks in.
func RunTraceDurable(tr Trace, cfg TraceConfig, o DurableOptions) (*DurableTraceResult, error) {
	slots := cfg.Executors
	if slots < 1 {
		slots = 2
	}
	jn, rc, err := openDurable(o, o.Metrics != nil || o.Prof != nil,
		cfg.Queue, newAdmission(cfg.Admission), slots, nil, 0)
	if err != nil {
		return nil, err
	}
	defer jn.log.Close()

	c := rc.core
	jobs := rc.jobs
	id := rc.nextID
	capacity := rc.capacity
	out := &DurableTraceResult{Report: rc.report}

	// Resume the arrival cursor: the snapshot's aux holds it as of the
	// snapshot; replayed submit ops advance it past that.
	next := 0
	if len(rc.aux) > 0 {
		var aux traceAux
		if err := json.Unmarshal(rc.aux, &aux); err != nil {
			return nil, fmt.Errorf("sched: decode trace aux state: %w", err)
		}
		next = aux.Next
	}
	if rc.maxArrival+1 > next {
		next = rc.maxArrival + 1
	}

	// Rebuild the completion schedule for jobs running at the crash: a
	// trace job admitted at tick T with service S completes at T+S.
	finishing := map[int64][]*Job{}
	inFlight := 0
	for _, j := range c.running {
		svc := j.service
		if svc < 1 {
			svc = 1
		}
		finishing[j.admitTick+svc] = append(finishing[j.admitTick+svc], j)
		inFlight++
	}

	var tail uint64 // seq of the newest op written this tick; committed once per tick
	logOp := func(op op) error {
		a, err := jn.logOp(op, false)
		if err != nil {
			return err
		}
		tail = a.seq
		out.Ops++
		if o.OpDelay > 0 {
			time.Sleep(o.OpDelay)
		}
		return nil
	}
	stopped := func() bool { return o.MaxOps > 0 && out.Ops >= o.MaxOps }
	snapshot := func() error {
		aux, err := json.Marshal(traceAux{Next: next})
		if err != nil {
			return err
		}
		st, err := captureSnapshot(c, jobs, id, capacity, rc.terminal, rc.dedup, aux)
		if err != nil {
			return err
		}
		return jn.snapshot(st)
	}
	finish := func(j *Job, failed bool, msg string) {
		delete(jobs, j.ID)
		rc.terminal.add(TerminalJob{
			ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
			Failed: failed, Attempts: j.attempts, Error: msg,
		})
	}

	for !stopped() {
		if cfg.CapacityAt != nil {
			if f := cfg.CapacityAt(c.tick); f != capacity {
				capacity = f
				c.adm.setCapacity(f)
				if err := logOp(op{K: opCapacity, Cap: f}); err != nil {
					return nil, err
				}
			}
		}
		// 1. Completions due now.
		if done := finishing[c.tick]; len(done) > 0 {
			sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
			for _, j := range done {
				c.complete(j, nil)
				inFlight--
				finish(j, false, "")
				if err := logOp(op{K: opComplete, Job: j.ID}); err != nil {
					return nil, err
				}
			}
			delete(finishing, c.tick)
		}
		// 2. Arrivals due now. Rejected submissions are journaled too:
		// replay reproduces the reject (and its decision) deterministically.
		for next < len(tr.Jobs) && tr.Jobs[next].At <= c.tick && !stopped() {
			a := tr.Jobs[next]
			arr := next
			next++
			id++
			j := &Job{ID: id, Spec: JobSpec{
				Tenant: a.Tenant, Priority: a.Priority, Cost: a.Cost, Deadline: a.Deadline,
			}, service: a.Service}
			if _, rej := c.submit(j); rej == nil {
				jobs[id] = j
			}
			if err := logOp(op{K: opSubmit, Job: id, Spec: wireFromJob(j), Arr: arr}); err != nil {
				return nil, err
			}
		}
		// 3. Dispatch onto free slots.
		for !stopped() {
			j, expired := c.dispatch()
			for _, e := range expired {
				finish(e, true, ErrDeadlineExpired.Error())
			}
			if j == nil && len(expired) == 0 {
				break
			}
			var jid JobID
			if j != nil {
				jid = j.ID
				svc := j.service
				if svc < 1 {
					svc = 1
				}
				finishing[c.tick+svc] = append(finishing[c.tick+svc], j)
				inFlight++
			}
			if err := logOp(op{K: opDispatch, Job: jid}); err != nil {
				return nil, err
			}
			if j == nil {
				break
			}
		}
		if jn.wantSnapshot() {
			if err := snapshot(); err != nil {
				return nil, err
			}
		}
		if tail != 0 {
			if err := jn.commit(tail); err != nil {
				return nil, err
			}
			tail = 0
		}
		if next >= len(tr.Jobs) && inFlight == 0 && c.q.Len() == 0 {
			out.Done = true
			break
		}
		jn.tick()
		c.advance()
	}

	if err := jn.log.Sync(); err != nil {
		return nil, err
	}
	out.TraceResult = deriveResult(c.log)
	return out, nil
}

// deriveResult reconstructs a TraceResult purely from the decision log, so
// a run resumed across any number of crashes reports exactly what one
// uninterrupted run reports. Costs come from enqueue details, waits from
// admit details — both part of the canonical rendered form.
func deriveResult(log []Decision) TraceResult {
	res := TraceResult{
		Completed:  map[string]int{},
		Rejected:   map[string]int{},
		Expired:    map[string]int{},
		ServedCost: map[string]int64{},
		Log:        log,
	}
	cost := map[JobID]int64{}
	for _, d := range log {
		switch d.Kind {
		case KindEnqueue:
			var prio int
			var c int64
			if _, err := fmt.Sscanf(d.Detail, "prio=%d cost=%d", &prio, &c); err == nil {
				cost[d.Job] = c
			}
		case KindAdmit:
			c := cost[d.Job]
			if c < 1 {
				c = 1
			}
			res.ServedCost[d.Tenant] += c
			var wait int64
			if _, err := fmt.Sscanf(d.Detail, "wait=%d", &wait); err == nil {
				res.Waits = append(res.Waits, wait)
			}
		case KindComplete:
			res.Completed[d.Tenant]++
		case KindReject:
			res.Rejected[d.Tenant]++
		case KindExpire:
			res.Expired[d.Tenant]++
		}
		if d.Tick > res.Makespan {
			res.Makespan = d.Tick
		}
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
