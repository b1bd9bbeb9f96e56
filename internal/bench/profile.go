package bench

import (
	"fmt"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/apps/soleil"
	"indexlaunch/internal/apps/stencil"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/sim"
)

// ProfileFigure runs one representative configuration of figure id — the
// paper's headline DCR + IDX curve at a small node count — with profiling
// attached, and returns the recorded profile. A figure sweep covers dozens
// of (nodes × config) points; profiling all of them into one stream would
// be unreadable, so the profile answers the question the figures raise:
// where does the pipeline time of the interesting configuration go?
func ProfileFigure(id int, o Options) (*obs.Profile, error) {
	nodes := 16
	if o.MaxNodes > 0 && o.MaxNodes < nodes {
		nodes = o.MaxNodes
	}
	iters := o.iters(5)
	tracing := true
	var prog sim.Program
	switch id {
	case 4:
		prog = circuit.SimProgram(circuit.SimParams{
			Nodes: nodes, TasksPerNode: 1, WiresPerTask: 5.1e6 / float64(nodes), Iters: iters,
		})
	case 5:
		prog = circuit.SimProgram(circuit.SimParams{
			Nodes: nodes, TasksPerNode: 1, WiresPerTask: 2e5, Iters: iters,
		})
	case 6:
		tracing = false
		prog = circuit.SimProgram(circuit.SimParams{
			Nodes: nodes, TasksPerNode: 10, WiresPerTask: 2e4, Iters: iters,
		})
	case 7:
		prog = stencil.SimProgram(stencil.SimParams{
			Nodes: nodes, CellsPerTask: 9e8 / float64(nodes), Iters: iters,
		})
	case 8:
		prog = stencil.SimProgram(stencil.SimParams{
			Nodes: nodes, CellsPerTask: 9e8, Iters: iters,
		})
	case 9:
		prog = soleil.SimProgram(soleil.SimParams{Nodes: nodes, Iters: iters})
	case 10:
		prog = soleil.SimProgram(soleil.SimParams{
			Nodes: nodes, DOM: true, Particles: true, Iters: iters,
		})
	default:
		return nil, fmt.Errorf("bench: no figure %d (have 4-10)", id)
	}
	rec := obs.NewRecorder("sim", nodes, 1<<14)
	_, err := sim.Run(sim.Config{
		Machine: machine.PizDaint(nodes), Cost: sim.DefaultCosts(),
		DCR: true, IDX: true, Tracing: tracing, DynChecks: true,
		Profile: rec,
	}, prog)
	if err != nil {
		return nil, err
	}
	return rec.Snapshot(), nil
}
