package sim

import (
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// The simulator's profiling adapter: the cost model's per-node charges are
// decomposed into the same pipeline-stage spans internal/rt records, on the
// simulated clock instead of wall time, so real and simulated executions
// are exported and analyzed with one tool. Decompositions reuse the exact
// cost components the engine charges; the engine's arithmetic is untouched
// when profiling is off (and the charges themselves never depend on the
// recorder), so enabling profiling cannot perturb a simulated makespan.

// profNS converts simulated seconds to profile-clock nanoseconds.
func profNS(sec float64) int64 { return int64(sec * 1e9) }

// profSeg records one stage span of dur seconds starting at start seconds
// of simulated time, attributed to the launch it belongs to, and returns its
// end. Zero-duration segments are suppressed to keep profiles at cost-model
// scale readable. A nil recorder records nothing.
func profSeg(rec *obs.Recorder, node int, st obs.Stage, launch string, start, dur float64) float64 {
	if dur > 0 {
		rec.Span(node, st, launch, launch, domain.Point{}, profNS(start), profNS(start+dur))
	}
	return start + dur
}

// profDCRNode mirrors runDCR's per-node charge c as stage segments laid out
// back to back from t0 = rtFree[node]. The segment durations are the same
// cost components runDCR sums into c, so they partition [t0, t0+c].
func profDCRNode(cfg Config, l Launch, replay bool,
	phys, checkCost, local float64, node int, t0 float64) {

	rec, cost := cfg.Profile, cfg.Cost
	t := t0
	switch {
	case cfg.IDX && replay && cfg.BulkTracing:
		profSeg(rec, node, obs.StageIssue, l.Name, t, cost.LaunchIssue)
	case cfg.IDX && replay:
		t = profSeg(rec, node, obs.StageIssue, l.Name, t, cost.LaunchIssue)
		profSeg(rec, node, obs.StageReplay, l.Name, t, local*cost.ReplayPerTask)
	case cfg.IDX:
		t = profSeg(rec, node, obs.StageIssue, l.Name, t, cost.LaunchIssue)
		t = profSeg(rec, node, obs.StageLogical, l.Name, t, cost.LogicalLaunch+checkCost)
		t = profSeg(rec, node, obs.StageDistribute, l.Name, t, local*cost.ShardPerLocalTask)
		profSeg(rec, node, obs.StagePhysical, l.Name, t, local*phys)
	case replay:
		if l.PerTaskReplay > 0 {
			// Application-overridden per-task cost: no decomposition known.
			profSeg(rec, node, obs.StageReplay, l.Name, t, float64(l.Points)*l.PerTaskReplay)
			return
		}
		t = profSeg(rec, node, obs.StageIssue, l.Name, t, float64(l.Points)*cost.TaskIssue)
		profSeg(rec, node, obs.StageReplay, l.Name, t, float64(l.Points)*cost.ReplayPerTask)
	default:
		if l.PerTaskIssue > 0 {
			t = profSeg(rec, node, obs.StageIssue, l.Name, t, float64(l.Points)*l.PerTaskIssue)
		} else {
			t = profSeg(rec, node, obs.StageIssue, l.Name, t, float64(l.Points)*cost.TaskIssue)
			t = profSeg(rec, node, obs.StageLogical, l.Name, t, float64(l.Points)*cost.LogicalTask)
		}
		profSeg(rec, node, obs.StagePhysical, l.Name, t, local*phys)
	}
}

// profCentralIssue mirrors the node-0 charge of runCentralized's per-task
// path: launch build + expansion (distribution work), per-task issuance and
// logical analysis (or replay), the centralized per-task burden and sends
// (distribution), and the inline physical analysis of node-0-local points.
func profCentralIssue(cfg Config, l Launch, replay bool, phys float64, localCount []int, t0 float64) {
	rec, cost := cfg.Profile, cfg.Cost
	points := float64(l.Points)
	remote := points - float64(localCount[0])
	var issue, logical, replayNS float64
	switch {
	case replay && l.PerTaskReplay > 0:
		replayNS = points * l.PerTaskReplay
	case replay:
		issue = points * cost.TaskIssue
		replayNS = points * cost.ReplayPerTask
	case l.PerTaskIssue > 0:
		issue = points * l.PerTaskIssue
	default:
		issue = points * cost.TaskIssue
		logical = points * cost.LogicalTask
	}
	dist := points * cost.CentralPerTask
	if cfg.IDX {
		issue += cost.LaunchIssue
		dist += points * cost.ExpandPerTask
	}
	dist += remote * cost.SendPerTask
	t := profSeg(rec, 0, obs.StageIssue, l.Name, t0, issue)
	t = profSeg(rec, 0, obs.StageLogical, l.Name, t, logical)
	t = profSeg(rec, 0, obs.StageReplay, l.Name, t, replayNS)
	t = profSeg(rec, 0, obs.StageDistribute, l.Name, t, dist)
	if !replay {
		profSeg(rec, 0, obs.StagePhysical, l.Name, t, float64(localCount[0])*phys)
	}
}
