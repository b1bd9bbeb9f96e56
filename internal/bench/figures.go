// Package bench regenerates every table and figure of the paper's
// evaluation (§6): the strong/weak scaling figures via the cluster
// simulator, and the dynamic-check timing tables via real measurements of
// the safety package. Each generator returns a Figure/Table value whose
// Render method prints the same rows and series the paper reports.
package bench

import (
	"fmt"
	"strings"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/apps/soleil"
	"indexlaunch/internal/apps/stencil"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/sim"
)

// Series is one curve of a figure.
type Series struct {
	Label string
	X     []int
	Y     []float64
}

// Figure is a rendered experiment: node counts vs one metric per
// configuration.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render prints the figure as an aligned table, one row per node count.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-8s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	fmt.Fprintf(&b, "   [%s]\n", f.YLabel)
	if len(f.Series) == 0 {
		return b.String()
	}
	for i, x := range f.Series[0].X {
		fmt.Fprintf(&b, "%-8d", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, " %16.3f", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options tune figure generation; zero values select faithful defaults.
type Options struct {
	// Iters is the number of timesteps simulated per data point.
	Iters int
	// MaxNodes caps the node sweep (power-of-two points up to the cap).
	MaxNodes int
}

func (o Options) iters(def int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	return def
}

func (o Options) nodes(def int) []int {
	cap := def
	if o.MaxNodes > 0 {
		cap = o.MaxNodes
	}
	var out []int
	for n := 1; n <= cap; n *= 2 {
		out = append(out, n)
	}
	return out
}

// fourConfigs are the cartesian-product configurations of Figures 4–8.
var fourConfigs = []struct {
	label    string
	dcr, idx bool
}{
	{"DCR, IDX", true, true},
	{"DCR, No IDX", true, false},
	{"No DCR, IDX", false, true},
	{"No DCR, No IDX", false, false},
}

func runSim(o Options, nodes int, dcr, idx, tracing, checks bool, prog sim.Program) float64 {
	res, err := sim.Run(sim.Config{
		Machine: machine.PizDaint(nodes), Cost: sim.DefaultCosts(),
		DCR: dcr, IDX: idx, Tracing: tracing, DynChecks: checks,
	}, prog)
	if err != nil {
		panic(err) // programs are generated; a failure is a harness bug
	}
	return res.MakespanSec
}

// Fig4CircuitStrong regenerates Figure 4: circuit strong scaling at
// 5.1·10⁶ wires, throughput in 10⁶ wires/s.
func Fig4CircuitStrong(o Options) Figure {
	const totalWires = 5.1e6
	iters := o.iters(20)
	fig := Figure{ID: "Fig4", Title: "Circuit strong scaling (5.1e6 wires)",
		XLabel: "nodes", YLabel: "throughput, 1e6 wires/s"}
	for _, cfg := range fourConfigs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(512) {
			prog := circuit.SimProgram(circuit.SimParams{
				Nodes: n, TasksPerNode: 1, WiresPerTask: totalWires / float64(n), Iters: iters,
			})
			mk := runSim(o, n, cfg.dcr, cfg.idx, true, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, circuit.WiresPerSecond(totalWires, iters, mk)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig5CircuitWeak regenerates Figure 5: circuit weak scaling at 2·10⁵
// wires/node, per-node throughput in 10⁶ wires/s.
func Fig5CircuitWeak(o Options) Figure {
	const wiresPerNode = 2e5
	iters := o.iters(20)
	fig := Figure{ID: "Fig5", Title: "Circuit weak scaling (2e5 wires/node)",
		XLabel: "nodes", YLabel: "throughput per node, 1e6 wires/s"}
	for _, cfg := range fourConfigs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(1024) {
			prog := circuit.SimProgram(circuit.SimParams{
				Nodes: n, TasksPerNode: 1, WiresPerTask: wiresPerNode, Iters: iters,
			})
			mk := runSim(o, n, cfg.dcr, cfg.idx, true, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, circuit.WiresPerSecond(wiresPerNode*float64(n), iters, mk)/float64(n)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig6CircuitWeakOverdecomposed regenerates Figure 6: circuit weak scaling
// with 10× overdecomposition and tracing disabled.
func Fig6CircuitWeakOverdecomposed(o Options) Figure {
	const wiresPerNode = 2e5
	const overdecompose = 10
	iters := o.iters(20)
	fig := Figure{ID: "Fig6", Title: "Circuit weak scaling, overdecomposed 10x, no tracing",
		XLabel: "nodes", YLabel: "throughput per node, 1e6 wires/s"}
	for _, cfg := range fourConfigs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(1024) {
			prog := circuit.SimProgram(circuit.SimParams{
				Nodes: n, TasksPerNode: overdecompose,
				WiresPerTask: wiresPerNode / overdecompose, Iters: iters,
			})
			mk := runSim(o, n, cfg.dcr, cfg.idx, false, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, circuit.WiresPerSecond(wiresPerNode*float64(n), iters, mk)/float64(n)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig7StencilStrong regenerates Figure 7: stencil strong scaling at 9·10⁸
// cells, throughput in 10⁹ cells/s.
func Fig7StencilStrong(o Options) Figure {
	const totalCells = 9e8
	iters := o.iters(20)
	fig := Figure{ID: "Fig7", Title: "Stencil strong scaling (9e8 cells)",
		XLabel: "nodes", YLabel: "throughput, 1e9 cells/s"}
	for _, cfg := range fourConfigs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(512) {
			prog := stencil.SimProgram(stencil.SimParams{
				Nodes: n, CellsPerTask: totalCells / float64(n), Iters: iters,
			})
			mk := runSim(o, n, cfg.dcr, cfg.idx, true, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, stencil.CellsPerSecond(totalCells, iters, mk)/1e9)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig8StencilWeak regenerates Figure 8: stencil weak scaling at 9·10⁸
// cells/node, per-node throughput in 10⁹ cells/s.
func Fig8StencilWeak(o Options) Figure {
	const cellsPerNode = 9e8
	iters := o.iters(20)
	fig := Figure{ID: "Fig8", Title: "Stencil weak scaling (9e8 cells/node)",
		XLabel: "nodes", YLabel: "throughput per node, 1e9 cells/s"}
	for _, cfg := range fourConfigs {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(1024) {
			prog := stencil.SimProgram(stencil.SimParams{
				Nodes: n, CellsPerTask: cellsPerNode, Iters: iters,
			})
			mk := runSim(o, n, cfg.dcr, cfg.idx, true, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, stencil.CellsPerSecond(cellsPerNode*float64(n), iters, mk)/float64(n)/1e9)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig9SoleilFluidWeak regenerates Figure 9: Soleil-X fluid-only weak
// scaling, iterations/s per node, DCR configurations only (as plotted).
func Fig9SoleilFluidWeak(o Options) Figure {
	iters := o.iters(10)
	fig := Figure{ID: "Fig9", Title: "Soleil-X (fluid-only) weak scaling",
		XLabel: "nodes", YLabel: "throughput per node, iter/s"}
	for _, cfg := range []struct {
		label string
		idx   bool
	}{{"DCR, IDX", true}, {"DCR, No IDX", false}} {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(512) {
			prog := soleil.SimProgram(soleil.SimParams{Nodes: n, Iters: iters})
			mk := runSim(o, n, true, cfg.idx, true, true, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, soleil.IterPerSecondPerNode(iters, mk))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig10SoleilFullWeak regenerates Figure 10: Soleil-X with fluid, particles
// and DOM, comparing dynamic-check, no-check, and No-IDX configurations.
func Fig10SoleilFullWeak(o Options) Figure {
	iters := o.iters(10)
	fig := Figure{ID: "Fig10", Title: "Soleil-X (fluid, particle and DOM) weak scaling",
		XLabel: "nodes", YLabel: "throughput per node, iter/s"}
	for _, cfg := range []struct {
		label       string
		idx, checks bool
	}{
		{"DCR, IDX (dynamic check)", true, true},
		{"DCR, IDX (no check)", true, false},
		{"DCR, No IDX", false, true},
	} {
		s := Series{Label: cfg.label}
		for _, n := range o.nodes(32) {
			prog := soleil.SimProgram(soleil.SimParams{
				Nodes: n, DOM: true, Particles: true, Iters: iters,
			})
			mk := runSim(o, n, true, cfg.idx, true, cfg.checks, prog)
			s.X = append(s.X, n)
			s.Y = append(s.Y, soleil.IterPerSecondPerNode(iters, mk))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Figures returns every figure generator keyed by number.
func Figures() map[int]func(Options) Figure {
	return map[int]func(Options) Figure{
		4:  Fig4CircuitStrong,
		5:  Fig5CircuitWeak,
		6:  Fig6CircuitWeakOverdecomposed,
		7:  Fig7StencilStrong,
		8:  Fig8StencilWeak,
		9:  Fig9SoleilFluidWeak,
		10: Fig10SoleilFullWeak,
	}
}
