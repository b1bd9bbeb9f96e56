package sim

import (
	"fmt"
	"math"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/obs"
)

// Result summarizes one simulated execution.
type Result struct {
	// MakespanSec is the completion time of the last task.
	MakespanSec float64
	// RuntimeBusySec is the total busy time of all runtime/analysis cores.
	RuntimeBusySec float64
	// GPUBusySec is the total busy time of all processors.
	GPUBusySec float64
	// Tasks is the number of point tasks executed.
	Tasks int64
	// Launches is the number of launches processed.
	Launches int64
	// CheckSec is the total time spent in dynamic projection-functor
	// checks.
	CheckSec float64
	// BusyByLaunch is the total processor time per launch name — the
	// workload profile idxsim prints.
	BusyByLaunch map[string]float64
}

// Run simulates prog on cfg and returns the makespan and resource totals.
func Run(cfg Config, prog Program) (Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return Result{}, err
	}
	stream, inBody := prog.unroll()
	if len(stream) == 0 {
		return Result{}, fmt.Errorf("sim: program %q has no launches", prog.Name)
	}

	n := cfg.Machine.Nodes
	g := cfg.Machine.GPUs
	net := cfg.Machine.Net
	cost := cfg.Cost

	rtFree := make([]float64, n)
	gpuFree := make([][]float64, n)
	for i := range gpuFree {
		gpuFree[i] = make([]float64, g)
	}

	// Retained per-launch state for dependence lookups.
	finishes := make([][]float64, len(stream))
	owners := make([][]int, len(stream))

	// Profiling state: execute-span IDs per launch point (for dependence
	// edges) and the last span on each processor lane (for the queueing
	// edges the critical-path walk follows through busy processors).
	rec := cfg.Profile
	var ids [][]int64
	var gpuLast [][]int64
	if rec != nil {
		ids = make([][]int64, len(stream))
		gpuLast = make([][]int64, n)
		for i := range gpuLast {
			gpuLast[i] = make([]int64, g)
		}
	}

	res := Result{BusyByLaunch: map[string]float64{}}
	bodySeen := 0
	firstBodyLen := len(prog.Body)

	for li, l := range stream {
		if l.Points <= 0 {
			return Result{}, fmt.Errorf("sim: launch %q has %d points", l.Name, l.Points)
		}
		// Replay holds for body launches after the first body iteration.
		replay := false
		if inBody[li] && cfg.Tracing {
			if bodySeen >= firstBodyLen {
				replay = true
			}
			bodySeen++
		}

		owner := make([]int, l.Points)
		localCount := make([]int, n)
		for p := 0; p < l.Points; p++ {
			o := 0
			if l.Owner != nil {
				o = l.Owner(p, n)
			} else {
				o = p * n / l.Points
			}
			if o < 0 {
				o = 0
			}
			if o >= n {
				o = n - 1
			}
			owner[p] = o
			localCount[o]++
		}

		subregions := l.SubregionCount
		if subregions <= 0 {
			subregions = l.Points
		}
		phys := cost.PhysBase + cost.PhysPerLog*math.Log2(float64(subregions)+1)
		checkCost := 0.0
		if cfg.IDX && l.NonTrivialFunctor && cfg.DynChecks && !replay {
			args := l.Args
			if args < 1 {
				args = 1
			}
			checkCost = float64(l.Points) * float64(args) * cost.CheckPerPointArg
			res.CheckSec += checkCost
		}

		// --- Issuance, logical analysis, distribution, physical analysis.
		ready := make([]float64, l.Points)
		rtBefore := sum(rtFree)
		if cfg.DCR {
			runDCR(cfg, l, replay, phys, checkCost, localCount, rtFree)
			for p := 0; p < l.Points; p++ {
				ready[p] = rtFree[owner[p]]
			}
		} else {
			runCentralized(cfg, l, replay, phys, checkCost, owner, localCount, rtFree, ready, net)
		}
		res.RuntimeBusySec += sum(rtFree) - rtBefore

		// Event propagation + consumer-side mapping latency per dependence
		// edge; grows slowly with machine size. Analysis itself runs ahead
		// of execution (deferred execution), so this latency rides on the
		// dependence chain, not on the analysis clocks.
		depLat := cost.StageLatency * math.Log2(float64(n)+1)

		// --- Execution.
		fin := make([]float64, l.Points)
		var lids []int64
		if rec != nil {
			lids = make([]int64, l.Points)
		}
		localIdx := make([]int, n)
		for p := 0; p < l.Points; p++ {
			node := owner[p]
			start := ready[p]
			// bindID tracks the execute span of whichever predecessor the
			// final start time is bound by — the edge the critical path
			// follows. Zero means the runtime pipeline (ready) bound it.
			var bindID int64
			for _, dep := range l.Deps {
				tgt := li - dep.Back
				if tgt < 0 {
					continue
				}
				if dep.Barrier {
					// Any one slowest task bounds the barrier; scan all.
					for q, fq := range finishes[tgt] {
						t := fq + depLat
						if owners[tgt][q] != node {
							t += net.Transfer(owners[tgt][q], node, l.CommBytes)
						}
						if t > start {
							start = t
							if rec != nil {
								bindID = ids[tgt][q]
							}
						}
					}
					continue
				}
				pts := depPoints(dep, p, len(finishes[tgt]))
				for _, q := range pts {
					if q < 0 || q >= len(finishes[tgt]) {
						continue
					}
					t := finishes[tgt][q] + depLat
					if owners[tgt][q] != node {
						t += net.Transfer(owners[tgt][q], node, l.CommBytes)
					}
					if t > start {
						start = t
						if rec != nil {
							bindID = ids[tgt][q]
						}
					}
				}
			}
			gi := localIdx[node] % g
			localIdx[node]++
			if gpuFree[node][gi] > start {
				start = gpuFree[node][gi]
				if rec != nil {
					bindID = gpuLast[node][gi]
				}
			}
			busy := cost.GPULaunch + l.ComputeSec
			end := start + busy
			gpuFree[node][gi] = end
			fin[p] = end
			res.GPUBusySec += busy
			res.BusyByLaunch[l.Name] += busy
			if end > res.MakespanSec {
				res.MakespanSec = end
			}
			if rec != nil {
				id := rec.NextID()
				lids[p] = id
				rec.Edge(bindID, id)
				rec.SpanID(id, node, obs.StageExecute, l.Name, l.Name,
					domain.Pt1(int64(p)), profNS(start), profNS(end))
				gpuLast[node][gi] = id
			}
		}
		finishes[li] = fin
		owners[li] = owner
		if rec != nil {
			ids[li] = lids
		}
		res.Tasks += int64(l.Points)
		res.Launches++
	}
	rec.SetWall(profNS(res.MakespanSec))
	return res, nil
}

func depPoints(dep DepSpec, p, targetLen int) []int {
	if dep.Map == nil {
		if p < targetLen {
			return []int{p}
		}
		return nil
	}
	return dep.Map(p)
}

// runDCR charges every node's runtime core for its replicated share of the
// launch.
func runDCR(cfg Config, l Launch, replay bool, phys, checkCost float64, localCount []int, rtFree []float64) {
	cost := cfg.Cost
	for node := range rtFree {
		local := float64(localCount[node])
		var c float64
		switch {
		case cfg.IDX && replay && cfg.BulkTracing:
			// Launch-granularity replay: one memoized dependence decision
			// per launch, no per-point work.
			c = cost.LaunchIssue
		case cfg.IDX && replay:
			c = cost.LaunchIssue + local*cost.ReplayPerTask
		case cfg.IDX:
			c = cost.LaunchIssue + cost.LogicalLaunch + checkCost +
				local*(cost.ShardPerLocalTask+phys)
		case replay:
			// Control replication replays the whole issuance loop on every
			// node; tracing elides only the analysis.
			c = float64(l.Points) * l.perTaskReplay(cost)
		default:
			c = float64(l.Points)*l.perTaskIssue(cost) + local*phys
		}
		if cfg.Profile != nil {
			profDCRNode(cfg, l, replay, phys, checkCost, local, node, rtFree[node])
		}
		rtFree[node] += c
	}
}

// runCentralized charges node 0 for issuance (and, without index launches
// or with tracing-forced expansion, for per-task processing and sends), the
// broadcast tree for distribution, and destinations for expansion and
// physical analysis.
func runCentralized(cfg Config, l Launch, replay bool, phys, checkCost float64,
	owner []int, localCount []int, rtFree, ready []float64, net machine.Network) {

	cost := cfg.Cost
	rec := cfg.Profile
	if cfg.IDX && (!cfg.Tracing || cfg.BulkTracing) {
		// Compact slice distribution through the broadcast tree. Bulk
		// trace replays additionally skip logical analysis and the
		// per-task physical analysis at the destinations.
		bulkReplay := replay && cfg.BulkTracing
		perLocal := cost.ExpandPerTask + phys
		if bulkReplay {
			profSeg(rec, 0, obs.StageIssue, l.Name, rtFree[0], cost.LaunchIssue)
			rtFree[0] += cost.LaunchIssue
			perLocal = cost.ExpandPerTask
		} else {
			t := profSeg(rec, 0, obs.StageIssue, l.Name, rtFree[0], cost.LaunchIssue)
			profSeg(rec, 0, obs.StageLogical, l.Name, t, cost.LogicalLaunch+checkCost)
			rtFree[0] += cost.LaunchIssue + cost.LogicalLaunch + checkCost
		}
		t0 := rtFree[0]
		// Per-hop walk down the broadcast tree (node i's parent is
		// (i-1)/2): each hop pays network latency, slice handling and the
		// transport's reliable-hop overhead. Only hops on routes to nodes
		// that receive slices are charged, mirroring the transport's
		// per-destination routing. With HopLatency = 0 this reduces to the
		// closed form t0 + depth·(latency + handling).
		arrival := make([]float64, len(rtFree))
		arrival[0] = t0
		need := make([]bool, len(rtFree))
		for node, c := range localCount {
			if node != 0 && c > 0 {
				for i := node; i != 0; i = (i - 1) / 2 {
					need[i] = true
				}
			}
		}
		hopCost := net.LatencySec + cost.SliceHandling + cost.HopLatency
		for node := 1; node < len(arrival); node++ {
			if !need[node] {
				continue
			}
			parent := (node - 1) / 2
			arrival[node] = arrival[parent] + hopCost
			rec.Span(parent, obs.StageSend, l.Name, l.Name, domain.Point{}, profNS(arrival[parent]), profNS(arrival[node]))
			rec.Mark(node, obs.StageRecv, l.Name, l.Name, domain.Point{}, profNS(arrival[node]))
		}
		for node := range rtFree {
			if localCount[node] == 0 {
				continue
			}
			start := rtFree[node]
			if arrival[node] > start {
				start = arrival[node]
			}
			local := float64(localCount[node])
			t := profSeg(rec, node, obs.StageDistribute, l.Name, start, local*cost.ExpandPerTask)
			if !bulkReplay {
				profSeg(rec, node, obs.StagePhysical, l.Name, t, local*phys)
			}
			rtFree[node] = start + float64(localCount[node])*perLocal
		}
		for p := range ready {
			ready[p] = rtFree[owner[p]]
		}
		return
	}

	// Per-task path: either no index launches, or tracing has forced the
	// launch to expand before distribution (paper §6.2.1). Node 0
	// processes and ships every task serially.
	if rec != nil {
		profCentralIssue(cfg, l, replay, phys, localCount, rtFree[0])
	}
	t := rtFree[0]
	if cfg.IDX {
		// The index launch is built, then immediately expanded: pure
		// overhead relative to issuing tasks directly.
		t += cost.LaunchIssue + float64(l.Points)*cost.ExpandPerTask
	}
	// Expanded tasks re-enter the per-task issuance path — with index
	// launches this comes *on top of* the launch and expansion overhead,
	// which is the paper's observed slight regression for No-DCR + IDX
	// under tracing.
	perTask := l.perTaskIssue(cost)
	if replay {
		perTask = l.perTaskReplay(cost)
	}
	destFree := make([]float64, len(rtFree))
	copy(destFree, rtFree)
	for p := range ready {
		t += perTask + cost.CentralPerTask
		node := owner[p]
		if node == 0 {
			if !replay {
				t += phys
			}
			ready[p] = t
			continue
		}
		t += cost.SendPerTask
		start := destFree[node]
		if arr := t + net.LatencySec + cost.HopLatency; arr > start {
			start = arr
		}
		if !replay {
			profSeg(rec, node, obs.StagePhysical, l.Name, start, phys)
			start += phys
		}
		destFree[node] = start
		ready[p] = start
	}
	rtFree[0] = t
	for node := 1; node < len(rtFree); node++ {
		if destFree[node] > rtFree[node] {
			rtFree[node] = destFree[node]
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
