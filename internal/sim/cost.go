// Package sim is a discrete-event model of the runtime pipeline of paper §5
// executing on a simulated cluster (internal/machine). It replays an
// application's launch stream under any combination of {DCR, index
// launches, tracing, dynamic checks} and produces the makespan from which
// the scaling figures are regenerated.
//
// The model charges explicit costs to three resource classes:
//
//   - each node's runtime/analysis core (issuance, logical analysis,
//     distribution handling, physical analysis, dynamic checks),
//   - each node's accelerator processors (task execution),
//   - the network (slice broadcast, per-task sends, halo traffic).
//
// What differs between configurations is *where* those costs are paid:
//
//   - DCR + IDX: every node issues one O(1) launch, shards it with a pure
//     sharding functor, and analyzes only its local points.
//   - DCR + no IDX: every node issues all |D| tasks (control replication
//     replays the whole program on every node) — the per-node O(|D|) term
//     that caps scaling.
//   - no DCR + IDX: node 0 issues one launch and broadcasts fixed-size
//     slices through an O(log N) tree; destinations expand and analyze
//     locally. With tracing enabled, the launch is expanded *before*
//     distribution (tracing operates on individual tasks), reproducing the
//     interference the paper observes in Figures 4–5.
//   - no DCR + no IDX: node 0 issues, analyzes and serially sends every
//     task — the centralized bottleneck.
package sim

import (
	"indexlaunch/internal/machine"
	"indexlaunch/internal/obs"
)

// CostModel holds the runtime overhead constants, in seconds. Defaults are
// calibrated to Legion-like magnitudes (a few microseconds per runtime
// operation; see paper §6.3: "approximately the same as the overhead of
// launching a task in Regent/Legion at these scales" ≈ 3 ms for 1e6 tasks).
type CostModel struct {
	// LaunchIssue is the cost of issuing one index launch (one runtime
	// call, O(1) regardless of |D|).
	LaunchIssue float64
	// TaskIssue is the cost of issuing one individual task.
	TaskIssue float64
	// LogicalLaunch is the whole-partition logical analysis of one index
	// launch.
	LogicalLaunch float64
	// LogicalTask is the per-task logical analysis when tasks are issued
	// individually.
	LogicalTask float64
	// ShardPerLocalTask is the DCR distribution cost per local point
	// (memoized sharding-functor evaluation + local enqueue).
	ShardPerLocalTask float64
	// ExpandPerTask is the cost of expanding one point task out of a slice
	// at its destination (or at node 0 when tracing forces early
	// expansion).
	ExpandPerTask float64
	// SendPerTask is node 0's serialization cost to ship one individual
	// task in centralized mode.
	SendPerTask float64
	// CentralPerTask is the additional per-task burden of the single
	// centralized context in non-DCR mode: coherence updates, mapping and
	// data-movement orchestration that DCR distributes but the original
	// centralized design funnels through one node. It is paid whether or
	// not the task's analysis was memoized by tracing.
	CentralPerTask float64
	// SliceHandling is the per-hop handling cost of one slice in the
	// broadcast tree.
	SliceHandling float64
	// HopLatency is the message-transport overhead per broadcast-tree hop
	// or centralized task send (sequence bookkeeping and ack turnaround), on
	// top of the network latency and SliceHandling — what internal/xport's
	// reliable hop costs a fault-free run.
	HopLatency float64
	// PhysBase + PhysPerLog·log2(|P|) is the physical (per-task) dependence
	// analysis cost, the bounding-volume-hierarchy query of §5.
	PhysBase   float64
	PhysPerLog float64
	// CheckPerPointArg is the dynamic safety check cost per launch-domain
	// point per argument (§6.3 measures ~1–3 ns/point).
	CheckPerPointArg float64
	// ReplayPerTask is the per-task analysis cost under trace replay.
	ReplayPerTask float64
	// GPULaunch is the fixed execution overhead per task (kernel launch).
	GPULaunch float64
	// StageLatency·log2(N+1) is charged once per launch before its tasks
	// become ready: the mapper calls, metadata round-trips and event
	// propagation that every stage pays and that grow slowly with machine
	// size.
	StageLatency float64
}

// DefaultCosts returns the calibrated cost model used by the experiments.
func DefaultCosts() CostModel {
	return CostModel{
		LaunchIssue:       5e-6,
		TaskIssue:         6e-6,
		LogicalLaunch:     10e-6,
		LogicalTask:       6e-6,
		ShardPerLocalTask: 0.7e-6,
		ExpandPerTask:     1.5e-6,
		SendPerTask:       4e-6,
		CentralPerTask:    150e-6,
		SliceHandling:     2e-6,
		HopLatency:        0.5e-6,
		PhysBase:          2e-6,
		PhysPerLog:        0.5e-6,
		CheckPerPointArg:  2.5e-9,
		ReplayPerTask:     1.2e-6,
		GPULaunch:         8e-6,
		StageLatency:      12e-6,
	}
}

// Config selects one simulated execution configuration — one curve of one
// figure.
type Config struct {
	Machine machine.Spec
	Cost    CostModel
	// DCR enables dynamic control replication.
	DCR bool
	// IDX enables index launches.
	IDX bool
	// Tracing enables Legion-style tracing (capture on the first body
	// iteration, replay on the rest).
	Tracing bool
	// BulkTracing models the paper's future work: tracing at launch
	// granularity. With it, tracing no longer forces index launches to
	// expand before centralized distribution, and DCR replays cost O(1)
	// per launch instead of O(local tasks).
	BulkTracing bool
	// DynChecks enables the dynamic projection-functor checks for launches
	// flagged NonTrivialFunctor.
	DynChecks bool
	// Profile attaches an observability recorder (internal/obs): the cost
	// model's per-node charges are decomposed into the same pipeline-stage
	// spans internal/rt records, on the simulated clock, so simulated and
	// real runs are viewed with one tool. Nil disables profiling; the
	// simulated timings are identical either way.
	Profile *obs.Recorder
}

// Label renders the configuration the way the paper's legends do.
func (c Config) Label() string {
	s := "No DCR"
	if c.DCR {
		s = "DCR"
	}
	if c.IDX {
		return s + ", IDX"
	}
	return s + ", No IDX"
}
