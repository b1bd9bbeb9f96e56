package sched

import (
	"fmt"
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
	// SnapshotEvery is the snapshot cadence in journaled ops; 0 defaults to
	// 4096.
	SnapshotEvery int
	// OpDelay pauses after every journaled op — the pacing knob the
	// crash-injection harness uses to make an external SIGKILL land mid-run.
	OpDelay time.Duration
	// MaxOps stops the run after this many journaled ops — the in-process
	// crash for recovery tests. 0 runs to completion.
	MaxOps int
}

// openDurable opens (or creates) the journal at o.Dir and recovers st, a
// fresh state, from it: torn-tail cleanup, newest-snapshot load, op replay.
// mx (optional) receives the wal_*/recover_* families and prof (optional)
// the journal, snapshot and recover spans. It returns the ready journal.
func openDurable(o DurableOptions, mx *metrics.Durability, prof *obs.Recorder, timed bool, st *state) (*journal, RecoveryReport, error) {
	var nowNS func() int64
	var start int64
	if prof != nil {
		nowNS = prof.Now
		start = nowNS()
	}
	log, rec, err := wal.Open(o.Dir, wal.Options{Fsync: o.Fsync, Interval: o.FsyncInterval})
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	rep, err := st.recover(rec)
	if err != nil {
		log.Close()
		return nil, rep, err
	}
	if mx != nil {
		if rep.Recovered {
			mx.Recoveries.Inc()
		}
		if rep.SnapshotLoaded {
			mx.SnapshotLoads.Inc()
		}
		mx.ReplayedRecords.Add(int64(rep.ReplayedOps))
		mx.TruncatedBytes.Add(rep.TruncatedBytes)
		mx.RequeuedJobs.Add(int64(rep.RequeuedJobs))
		mx.ResumedJobs.Add(int64(rep.ResumedJobs))
	}
	if prof != nil {
		prof.Span(0, obs.StageRecover, "",
			fmt.Sprintf("replayed:%d", rep.ReplayedOps), domain.Point{}, start, prof.Now())
	}
	return newJournal(log, o, mx, prof, timed, nowNS), rep, nil
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

// RunTraceDurable is RunTrace with a write-ahead journal underneath: every
// op is written as it is applied and the tick's ops are committed together
// before the virtual clock moves past them, and on start the run resumes
// from whatever consistent prefix the journal holds. Killing the process at
// any point and re-running with the same (trace, config, dir) converges on a
// decision log byte-identical to the crash-free run — the determinism
// contract the crash-injection harness locks in.
func RunTraceDurable(tr Trace, cfg TraceConfig, o DurableOptions) (*DurableTraceResult, error) {
	st := newTraceState(cfg)
	jn, rep, err := openDurable(o, nil, nil, false, st)
	if err != nil {
		return nil, err
	}
	defer jn.log.Close()
	if int(st.nextID) > len(tr.Jobs) {
		return nil, fmt.Errorf("sched: journal holds %d arrivals, the trace %d", st.nextID, len(tr.Jobs))
	}
	out, err := runTrace(tr, cfg, st, jn, o)
	if err != nil {
		return nil, err
	}
	out.Report = rep
	return out, nil
}
