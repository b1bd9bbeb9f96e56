package soleil

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
	return Params{TilesX: 2, TilesY: 2, TilesZ: 2, Side: 4, ParticlesPerTile: 8, Octants: 2}
}

func TestBuildStructure(t *testing.T) {
	s, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Tiles.Disjoint() || !s.Tiles.Complete() {
		t.Error("tiles must be disjoint and complete")
	}
	if s.Halos.Disjoint() {
		t.Error("halos must be aliased")
	}
	for _, p := range []*region.Partition{s.PartBlocks, s.YZFaces, s.XZFaces, s.XYFaces} {
		if !p.Disjoint() || !p.Complete() {
			t.Errorf("%s must be disjoint and complete", p)
		}
	}
	if s.TileGrid.Volume() != 8 {
		t.Errorf("tile grid volume = %d", s.TileGrid.Volume())
	}
}

func TestBuildValidation(t *testing.T) {
	bad := []Params{
		{},
		{TilesX: 1, TilesY: 1, TilesZ: 1, Side: 1, ParticlesPerTile: 1, Octants: 1},
		{TilesX: 1, TilesY: 1, TilesZ: 1, Side: 4, ParticlesPerTile: 1, Octants: 9},
	}
	for i, p := range bad {
		if _, err := Build(p); err == nil {
			t.Errorf("params %d should be rejected", i)
		}
	}
}

func TestTileIndexBijective(t *testing.T) {
	s, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	s.TileGrid.Each(func(pt domain.Point) bool {
		idx := s.TileIndex(pt)
		if idx < 0 || idx >= 8 || seen[idx] {
			t.Errorf("tile index %d for %v invalid or duplicated", idx, pt)
		}
		seen[idx] = true
		return true
	})
}

func TestOctants(t *testing.T) {
	all := Octants(8)
	if len(all) != 8 {
		t.Fatalf("got %d octants", len(all))
	}
	seen := map[[3]int64]bool{}
	for _, o := range all {
		key := [3]int64{o.Sx, o.Sy, o.Sz}
		if seen[key] {
			t.Errorf("duplicate octant %v", key)
		}
		seen[key] = true
	}
	if len(Octants(3)) != 3 {
		t.Error("prefix selection broken")
	}
}

func maxFieldDiff(a, b *region.Tree, f region.FieldID) float64 {
	accA := region.MustFieldF64(a.Root(), f)
	accB := region.MustFieldF64(b.Root(), f)
	var maxDiff float64
	a.Root().Domain.Each(func(p domain.Point) bool {
		d := math.Abs(accA.Get(p) - accB.Get(p))
		if d > maxDiff {
			maxDiff = d
		}
		return true
	})
	return maxDiff
}

func TestRuntimeMatchesReference(t *testing.T) {
	const iters = 2
	for _, dcr := range []bool{false, true} {
		ref, err := Build(testParams())
		if err != nil {
			t.Fatal(err)
		}
		Reference(ref, iters)

		s, err := Build(testParams())
		if err != nil {
			t.Fatal(err)
		}
		r := rt.MustNew(rt.Config{
			Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true, VerifyLaunches: true,
		})
		app := NewApp(s, r)
		if err := app.Run(iters); err != nil {
			t.Fatal(err)
		}

		if d := maxFieldDiff(ref.Cells, s.Cells, FieldTemp); d != 0 {
			t.Errorf("dcr=%v: temp diverges by %g", dcr, d)
		}
		if d := maxFieldDiff(ref.Cells, s.Cells, FieldIntensity); d != 0 {
			t.Errorf("dcr=%v: intensity diverges by %g", dcr, d)
		}
		if d := maxFieldDiff(ref.Particles, s.Particles, FieldPTemp); d != 0 {
			t.Errorf("dcr=%v: particle temp diverges by %g", dcr, d)
		}
		// Sanity: the sweep actually deposited radiation.
		sum, _ := region.SumF64(s.Cells.Root(), FieldIntensity)
		if sum <= 0 {
			t.Error("no radiation deposited")
		}
	}
}

func TestSweepLaunchesNeedDynamicChecks(t *testing.T) {
	// The DOM plane-projection functors and the particle linearization are
	// statically unresolvable: the hybrid analysis must fall back to
	// dynamic checks, and all launches must still pass (no fallbacks).
	s, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MustNew(rt.Config{
		Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: true,
	})
	app := NewApp(s, r)
	if err := app.Run(1); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 (all launches are valid)", st.Fallbacks)
	}
	if st.DynamicCheckEvals == 0 {
		t.Error("expected dynamic checks for non-trivial projection functors")
	}
}

func TestChecksDisabledStillCorrect(t *testing.T) {
	// The paper: the dynamic check is advisory; disabling it must not
	// change results of a valid program.
	ref, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	Reference(ref, 1)

	s, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10's "no check" series: launches issue unverified.
	r := rt.MustNew(rt.Config{Nodes: 2, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: false})
	app := NewApp(s, r)
	if err := app.Run(1); err != nil {
		t.Fatal(err)
	}
	if d := maxFieldDiff(ref.Cells, s.Cells, FieldIntensity); d != 0 {
		t.Errorf("intensity diverges by %g with checks disabled", d)
	}
	if st := r.Stats(); st.DynamicCheckEvals != 0 {
		t.Errorf("dynamic evaluations = %d with checks disabled", st.DynamicCheckEvals)
	}
}

func TestWavefrontCoversGridOnce(t *testing.T) {
	s, err := Build(testParams())
	if err != nil {
		t.Fatal(err)
	}
	app := &App{S: s}
	for _, oct := range Octants(8) {
		var total int64
		for d := int64(0); d <= 3*2-3; d++ {
			total += app.wavefront(oct, d).Volume()
		}
		if total != 8 {
			t.Errorf("octant %+v wavefronts cover %d tiles, want 8", oct, total)
		}
	}
}

func TestSimProgramFluidOnlyShape(t *testing.T) {
	prog := SimProgram(SimParams{Nodes: 8, Iters: 2})
	if len(prog.Body) != fluidStages {
		t.Fatalf("fluid-only body = %d launches", len(prog.Body))
	}
	res, err := sim.Run(sim.Config{
		Machine: machine.PizDaint(8), Cost: sim.DefaultCosts(),
		DCR: true, IDX: true, Tracing: true, DynChecks: true,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	tput := IterPerSecondPerNode(2, res.MakespanSec)
	if tput < 2 || tput > 6 {
		t.Errorf("fluid iter/s = %.2f, want ~3.3 (Figure 9 scale)", tput)
	}
}

func TestSimFluidWeakScalingShape(t *testing.T) {
	// Figure 9: DCR+IDX holds high efficiency at 512 nodes; DCR+NoIDX
	// falls well below it.
	run := func(nodes int, idx bool) float64 {
		prog := SimProgram(SimParams{Nodes: nodes, Iters: 5})
		res, err := sim.Run(sim.Config{
			Machine: machine.PizDaint(nodes), Cost: sim.DefaultCosts(),
			DCR: true, IDX: idx, Tracing: true, DynChecks: true,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return IterPerSecondPerNode(5, res.MakespanSec)
	}
	base := run(1, true)
	idx512 := run(512, true)
	noIdx512 := run(512, false)
	eff := idx512 / base
	if eff < 0.6 || eff > 0.95 {
		t.Errorf("DCR+IDX fluid weak efficiency at 512 = %.2f, want ~0.78", eff)
	}
	if noIdx512 >= idx512*0.9 {
		t.Errorf("DCR+NoIDX (%.2f) should fall well below IDX (%.2f) at 512", noIdx512, idx512)
	}
}

func TestSimFullWeakScalingShape(t *testing.T) {
	// Figure 10: the DOM-limited full simulation reaches ~64% efficiency
	// at 32 nodes; dynamic-check and no-check curves are indistinguishable
	// (< 1% apart); No-IDX is clearly worse.
	run := func(nodes int, idx, checks bool) float64 {
		prog := SimProgram(SimParams{Nodes: nodes, DOM: true, Particles: true, Iters: 5})
		res, err := sim.Run(sim.Config{
			Machine: machine.PizDaint(nodes), Cost: sim.DefaultCosts(),
			DCR: true, IDX: idx, Tracing: true, DynChecks: checks,
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return IterPerSecondPerNode(5, res.MakespanSec)
	}
	base := run(1, true, true)
	at32 := run(32, true, true)
	eff := at32 / base
	if eff < 0.35 || eff > 0.9 {
		t.Errorf("full weak efficiency at 32 = %.2f, want ~0.64 (sweep-limited)", eff)
	}
	noCheck := run(32, true, false)
	if rel := math.Abs(noCheck-at32) / at32; rel > 0.01 {
		t.Errorf("dynamic-check cost should be negligible: %.4f vs %.4f (%.2f%%)",
			at32, noCheck, rel*100)
	}
	noIdx := run(32, false, true)
	if noIdx >= at32*0.95 {
		t.Errorf("No-IDX (%.3f) should be clearly below IDX (%.3f)", noIdx, at32)
	}
}

func TestSweepCriticalPath(t *testing.T) {
	if got := SweepCriticalPath(8); got != 4 { // 2+2+2-2
		t.Errorf("critical path at 8 nodes = %d, want 4", got)
	}
	if got := SweepCriticalPath(32); got != 8 { // 2+4+4-2
		t.Errorf("critical path at 32 nodes = %d, want 8", got)
	}
}
