package circuit

import (
	"math"
	"testing"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/sim"
)

func testParams() Params {
	return Params{Pieces: 4, NodesPerPiece: 20, WiresPerPiece: 40, CrossFraction: 0.2, Seed: 42}
}

func TestBuildStructure(t *testing.T) {
	c, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !c.PrivateNodes.Disjoint() || !c.PrivateNodes.Complete() {
		t.Error("private partition must be disjoint and complete")
	}
	if !c.PieceWires.Disjoint() {
		t.Error("wire partition must be disjoint")
	}
	if c.AllNodes.Disjoint() {
		t.Error("all-nodes partition must be aliased (ghosts overlap privates)")
	}
	// Every ghost node must be outside the piece's own block.
	c.LaunchDomain.Each(func(p domain.Point) bool {
		ghost := c.GhostNodes.MustSubregion(p)
		private := c.PrivateNodes.MustSubregion(p)
		if ghost.Overlaps(private) {
			t.Errorf("piece %v: ghost overlaps private", p)
		}
		return true
	})
	// Wire endpoints must be valid node indices.
	in := region.MustFieldI64(c.Wires.Root(), FieldInNode)
	out := region.MustFieldI64(c.Wires.Root(), FieldOutNode)
	total := int64(c.Params.Pieces * c.Params.NodesPerPiece)
	c.Wires.Root().Domain.Each(func(w domain.Point) bool {
		if in.Get(w) < 0 || in.Get(w) >= total || out.Get(w) < 0 || out.Get(w) >= total {
			t.Fatalf("wire %v endpoints out of range", w)
		}
		return true
	})
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Params{}); err == nil {
		t.Error("zero params should error")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalVoltage() != b.TotalVoltage() {
		t.Error("same seed must produce identical circuits")
	}
}

func runtimeMatchesReference(t *testing.T, cfg rt.Config, iters int) {
	t.Helper()
	ref, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	Reference(ref, iters)

	c, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MustNew(cfg)
	app := NewApp(c, r)
	if err := app.Run(iters); err != nil {
		t.Fatal(err)
	}

	refV := region.MustFieldF64(ref.Nodes.Root(), FieldVoltage)
	gotV := region.MustFieldF64(c.Nodes.Root(), FieldVoltage)
	maxDiff := 0.0
	c.Nodes.Root().Domain.Each(func(p domain.Point) bool {
		d := math.Abs(refV.Get(p) - gotV.Get(p))
		if d > maxDiff {
			maxDiff = d
		}
		return true
	})
	// Reduction reordering allows tiny float drift; anything larger means
	// a missed dependency.
	if maxDiff > 1e-9 {
		t.Errorf("max voltage divergence from reference = %g", maxDiff)
	}
}

func TestRuntimeMatchesReferenceAllConfigs(t *testing.T) {
	for _, dcr := range []bool{false, true} {
		for _, idx := range []bool{false, true} {
			cfg := rt.Config{
				Nodes: 2, ProcsPerNode: 2, DCR: dcr, IndexLaunches: idx,
				VerifyLaunches: true,
			}
			name := "noDCR"
			if dcr {
				name = "DCR"
			}
			if idx {
				name += "+IDX"
			} else {
				name += "+noIDX"
			}
			t.Run(name, func(t *testing.T) {
				runtimeMatchesReference(t, cfg, 5)
			})
		}
	}
}

// Capture/replay must give reference-identical results: the first timestep
// captures, the rest replay.
func TestRuntimeWithTracingMatchesReference(t *testing.T) {
	ref, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	const iters = 6
	Reference(ref, iters)

	c, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MustNew(rt.Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true})
	app := NewApp(c, r)
	for i := 0; i < iters; i++ {
		if err := r.BeginTrace(100); err != nil {
			t.Fatal(err)
		}
		if err := app.Step(); err != nil {
			t.Fatal(err)
		}
		if err := r.EndTrace(100); err != nil {
			t.Fatal(err)
		}
	}
	r.Fence()
	st := r.Stats()
	if st.TraceReplays != iters-1 {
		t.Errorf("replays = %d, want %d", st.TraceReplays, iters-1)
	}

	refV := region.MustFieldF64(ref.Nodes.Root(), FieldVoltage)
	gotV := region.MustFieldF64(c.Nodes.Root(), FieldVoltage)
	maxDiff := 0.0
	c.Nodes.Root().Domain.Each(func(p domain.Point) bool {
		d := math.Abs(refV.Get(p) - gotV.Get(p))
		if d > maxDiff {
			maxDiff = d
		}
		return true
	})
	if maxDiff > 1e-9 {
		t.Errorf("traced run diverges from reference by %g", maxDiff)
	}
}

func TestLaunchesPassSafetyChecks(t *testing.T) {
	// All circuit launches use identity functors and must verify
	// statically (the paper: "verified entirely by Regent's static checker
	// and does not incur any runtime cost").
	c, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MustNew(rt.Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: true})
	app := NewApp(c, r)
	if err := app.Run(2); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", st.Fallbacks)
	}
	if st.DynamicCheckEvals != 0 {
		t.Errorf("dynamic evaluations = %d, want 0 (trivial functors)", st.DynamicCheckEvals)
	}
}

func TestSimProgramShape(t *testing.T) {
	prog := SimProgram(SimParams{Nodes: 8, TasksPerNode: 1, WiresPerTask: 2e5, Iters: 3})
	if len(prog.Body) != 3 || prog.Iterations != 3 {
		t.Fatalf("body=%d iters=%d", len(prog.Body), prog.Iterations)
	}
	res, err := sim.Run(sim.Config{
		Machine: machine.PizDaint(8), Cost: sim.DefaultCosts(),
		DCR: true, IDX: true, DynChecks: true,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 3*3*8 {
		t.Errorf("tasks = %d, want 72", res.Tasks)
	}
	// Throughput should land in the right ballpark (≈ 5e6 wires/s/node).
	tput := WiresPerSecond(2e5*8, 3, res.MakespanSec) / 8
	if tput < 3e6 || tput > 6e6 {
		t.Errorf("throughput per node = %.3g wires/s, want ~5e6", tput)
	}
}

func TestSimWeakScalingOrdering(t *testing.T) {
	// At 512 nodes the four configurations must order as in Figure 5:
	// DCR+IDX fastest, then DCR+NoIDX, then the centralized pair.
	const nodes = 512
	prog := func() sim.Program {
		return SimProgram(SimParams{Nodes: nodes, TasksPerNode: 1, WiresPerTask: 2e5, Iters: 10})
	}
	run := func(dcr, idx bool) float64 {
		res, err := sim.Run(sim.Config{
			Machine: machine.PizDaint(nodes), Cost: sim.DefaultCosts(),
			DCR: dcr, IDX: idx, Tracing: true, DynChecks: true,
		}, prog())
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	dcrIdx := run(true, true)
	dcrNo := run(true, false)
	cenIdx := run(false, true)
	cenNo := run(false, false)
	if !(dcrIdx < dcrNo && dcrNo < cenNo && cenNo < cenIdx) {
		t.Errorf("config ordering violated: DCR+IDX=%.4f DCR+NoIDX=%.4f NoDCR+NoIDX=%.4f NoDCR+IDX=%.4f",
			dcrIdx, dcrNo, cenNo, cenIdx)
	}
}
