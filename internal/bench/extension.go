package bench

import (
	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/sim"
)

// FigBulkTracing is an extension experiment beyond the paper: it re-runs
// the Figure 5 circuit weak-scaling sweep with the paper's *future work*
// implemented — tracing at launch granularity ("bulk tracing", §6.2.1's
// closing paragraph). With it, tracing no longer forces early expansion in
// centralized mode, so "No DCR, IDX" recovers the compact broadcast path
// and beats "No DCR, No IDX" even with tracing enabled.
func FigBulkTracing(o Options) Figure {
	const wiresPerNode = 2e5
	iters := o.iters(20)
	fig := Figure{
		ID:     "FigX",
		Title:  "EXTENSION: circuit weak scaling with launch-granularity (bulk) tracing",
		XLabel: "nodes", YLabel: "throughput per node, 1e6 wires/s",
	}
	configs := []struct {
		label     string
		dcr, idx  bool
		bulkTrace bool
	}{
		{"DCR, IDX (bulk)", true, true, true},
		{"No DCR, IDX (bulk)", false, true, true},
		{"No DCR, IDX (std)", false, true, false},
		{"No DCR, No IDX", false, false, false},
	}
	for _, cfg := range configs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(1024) {
			prog := circuit.SimProgram(circuit.SimParams{
				Nodes: n, TasksPerNode: 1, WiresPerTask: wiresPerNode, Iters: iters,
			})
			res, err := sim.Run(sim.Config{
				Machine: machine.PizDaint(n), Cost: sim.DefaultCosts(),
				DCR: cfg.dcr, IDX: cfg.idx, Tracing: true,
				BulkTracing: cfg.bulkTrace, DynChecks: true,
			}, prog)
			if err != nil {
				panic(err)
			}
			s.X = append(s.X, n)
			s.Y = append(s.Y, circuit.WiresPerSecond(wiresPerNode*float64(n), iters, res.MakespanSec)/float64(n)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}
