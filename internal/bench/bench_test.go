package bench

import (
	"strings"
	"testing"
)

// Figures are generated with reduced iteration counts in tests to keep the
// suite fast; the benchmarks and cmd/idxbench run the full settings.
var fast = Options{Iters: 5}

func TestFig4Shape(t *testing.T) {
	fig := Fig4CircuitStrong(Options{Iters: 5, MaxNodes: 512})
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	last := len(fig.Series[0].Y) - 1
	dcrIdx := fig.Series[0].Y[last]
	dcrNo := fig.Series[1].Y[last]
	cenIdx := fig.Series[2].Y[last]
	cenNo := fig.Series[3].Y[last]
	if !(dcrIdx > dcrNo) {
		t.Errorf("at 512: DCR+IDX (%.1f) must beat DCR+NoIDX (%.1f)", dcrIdx, dcrNo)
	}
	gap := dcrIdx / dcrNo
	if gap < 1.2 || gap > 4 {
		t.Errorf("strong-scaling gap = %.2fx, paper reports 1.6x; want same ballpark", gap)
	}
	if !(dcrNo > cenNo && cenNo >= cenIdx*0.95) {
		t.Errorf("centralized configs must trail: DCR+NoIDX=%.1f NoDCR+NoIDX=%.1f NoDCR+IDX=%.1f",
			dcrNo, cenNo, cenIdx)
	}
	// The tracing interference: No-DCR IDX at or slightly below No-DCR
	// No-IDX.
	if cenIdx > cenNo {
		t.Errorf("No-DCR IDX (%.2f) should not beat No-IDX (%.2f) under tracing", cenIdx, cenNo)
	}
}

func TestFig5Shape(t *testing.T) {
	fig := Fig5CircuitWeak(Options{Iters: 5, MaxNodes: 1024})
	last := len(fig.Series[0].Y) - 1
	base := fig.Series[0].Y[0]
	eff := fig.Series[0].Y[last] / base
	if eff < 0.6 || eff > 0.98 {
		t.Errorf("DCR+IDX weak efficiency at 1024 = %.2f, paper reports 0.85", eff)
	}
	// At 256 nodes DCR+NoIDX matches DCR+IDX closely (84% vs 85%).
	idx256 := yAt(fig.Series[0], 256)
	no256 := yAt(fig.Series[1], 256)
	if no256 < idx256*0.9 {
		t.Errorf("at 256: DCR+NoIDX (%.2f) should be within 10%% of IDX (%.2f)", no256, idx256)
	}
	// Centralized configurations collapse at scale.
	if cen := fig.Series[3].Y[last]; cen > fig.Series[0].Y[last]*0.5 {
		t.Errorf("No-DCR at 1024 (%.2f) should collapse well below DCR+IDX (%.2f)",
			cen, fig.Series[0].Y[last])
	}
}

func TestFig6Reversal(t *testing.T) {
	fig := Fig6CircuitWeakOverdecomposed(Options{Iters: 5, MaxNodes: 512})
	// Without tracing, IDX beats No-IDX in both DCR and non-DCR modes at
	// scale — the reversal resolution of §6.2.1.
	idxDcr := yAt(fig.Series[0], 512)
	noDcr := yAt(fig.Series[1], 512)
	idxCen := yAt(fig.Series[2], 512)
	noCen := yAt(fig.Series[3], 512)
	if idxDcr <= noDcr {
		t.Errorf("DCR: IDX (%.2f) must beat No-IDX (%.2f) when overdecomposed without tracing", idxDcr, noDcr)
	}
	if idxCen <= noCen {
		t.Errorf("No-DCR: IDX (%.2f) must beat No-IDX (%.2f) when overdecomposed without tracing", idxCen, noCen)
	}
}

func TestFig7And8Shapes(t *testing.T) {
	f7 := Fig7StencilStrong(Options{Iters: 5, MaxNodes: 512})
	last := len(f7.Series[0].Y) - 1
	gap := f7.Series[0].Y[last] / f7.Series[1].Y[last]
	if gap < 1.05 || gap > 6 {
		t.Errorf("stencil strong gap = %.2fx, paper reports 1.2x; want modest", gap)
	}
	f8 := Fig8StencilWeak(Options{Iters: 5, MaxNodes: 1024})
	idx512 := yAt(f8.Series[0], 512)
	no512 := yAt(f8.Series[1], 512)
	idx1024 := yAt(f8.Series[0], 1024)
	no1024 := yAt(f8.Series[1], 1024)
	relAt512 := no512 / idx512
	relAt1024 := no1024 / idx1024
	if relAt1024 >= relAt512 {
		t.Errorf("divergence should grow with node count: %.3f at 512 vs %.3f at 1024",
			relAt512, relAt1024)
	}
}

func TestFig9Shape(t *testing.T) {
	fig := Fig9SoleilFluidWeak(Options{Iters: 5, MaxNodes: 512})
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	base := fig.Series[0].Y[0]
	last := len(fig.Series[0].Y) - 1
	eff := fig.Series[0].Y[last] / base
	if eff < 0.6 || eff > 0.95 {
		t.Errorf("fluid weak efficiency at 512 = %.2f, paper reports 0.78", eff)
	}
	if fig.Series[1].Y[last] >= fig.Series[0].Y[last]*0.9 {
		t.Errorf("No-IDX (%.2f) must fall below IDX (%.2f)", fig.Series[1].Y[last], fig.Series[0].Y[last])
	}
}

func TestFig10Shape(t *testing.T) {
	fig := Fig10SoleilFullWeak(Options{Iters: 5, MaxNodes: 32})
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	base := fig.Series[0].Y[0]
	last := len(fig.Series[0].Y) - 1
	eff := fig.Series[0].Y[last] / base
	if eff < 0.4 || eff > 0.9 {
		t.Errorf("full weak efficiency at 32 = %.2f, paper reports 0.64", eff)
	}
	// Check vs no-check: indistinguishable.
	rel := fig.Series[1].Y[last] / fig.Series[0].Y[last]
	if rel < 0.99 || rel > 1.01 {
		t.Errorf("no-check / check ratio = %.4f, want ~1 (negligible cost)", rel)
	}
	if fig.Series[2].Y[last] >= fig.Series[0].Y[last]*0.95 {
		t.Errorf("No-IDX (%.2f) must trail IDX (%.2f)", fig.Series[2].Y[last], fig.Series[0].Y[last])
	}
}

func TestTable2LinearScaling(t *testing.T) {
	tab := Table2SelfChecks()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Reading left to right, each 10x domain growth must grow time
		// roughly linearly (between 3x and 30x — generous bounds for
		// timer noise at the small end).
		for i := 1; i < len(row.MicrosPerSize); i++ {
			ratio := row.MicrosPerSize[i] / row.MicrosPerSize[i-1]
			if ratio < 3 || ratio > 40 {
				t.Errorf("%s: size step %d ratio = %.1fx, want ~10x (linear)", row.Label, i, ratio)
			}
		}
		// The paper's headline: even at 1e6 the check stays in the
		// low-millisecond range (we allow extra headroom for the opaque
		// interface-dispatch path; the paper's compiler inlines it). An
		// absolute time says nothing under the race detector, which only
		// the ratios above survive.
		if last := row.MicrosPerSize[len(row.MicrosPerSize)-1]; !raceBuild && last > 40_000 {
			t.Errorf("%s at 1e6 took %.0f µs; want low milliseconds", row.Label, last)
		}
	}
}

func TestTable3LinearInArgs(t *testing.T) {
	tab := Table3CrossChecks()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Reading down a column, time grows roughly linearly with argument
	// count: 5 args should cost no more than ~4x 2 args (2.5x ideal).
	col := len(Table2Sizes) - 1
	t2 := tab.Rows[0].MicrosPerSize[col]
	t5 := tab.Rows[3].MicrosPerSize[col]
	if t5 < t2 || t5 > 5*t2 {
		t.Errorf("5-arg check (%.0f µs) vs 2-arg (%.0f µs): want ~2.5x", t5, t2)
	}
}

func TestRenderOutputs(t *testing.T) {
	fig := Fig10SoleilFullWeak(Options{Iters: 2, MaxNodes: 4})
	out := fig.Render()
	if !strings.Contains(out, "Fig10") || !strings.Contains(out, "DCR, IDX (dynamic check)") {
		t.Errorf("figure render:\n%s", out)
	}
	tab := Table{ID: "T", Title: "t", Sizes: []int64{10}, Rows: []TableRow{{Label: "x", MicrosPerSize: []float64{1.5}}}}
	if !strings.Contains(tab.Render(), "1.5") {
		t.Errorf("table render:\n%s", tab.Render())
	}
}

func TestFigBulkTracingExtension(t *testing.T) {
	fig := FigBulkTracing(Options{Iters: 5, MaxNodes: 256})
	bulkIdx := yAt(fig.Series[1], 256) // No DCR, IDX (bulk)
	stdIdx := yAt(fig.Series[2], 256)  // No DCR, IDX (std)
	noIdx := yAt(fig.Series[3], 256)   // No DCR, No IDX
	dcrBulk := yAt(fig.Series[0], 256) // DCR, IDX (bulk)
	if bulkIdx <= noIdx || bulkIdx <= stdIdx {
		t.Errorf("bulk tracing should recover the compact path: bulk=%.2f std=%.2f noIDX=%.2f",
			bulkIdx, stdIdx, noIdx)
	}
	if dcrBulk < bulkIdx*0.95 {
		t.Errorf("DCR+bulk (%.2f) should be at least on par with No-DCR+bulk (%.2f)", dcrBulk, bulkIdx)
	}
}

func TestGeneratorRegistries(t *testing.T) {
	if len(Figures()) != 7 {
		t.Errorf("figures = %d, want 7 (Figs 4-10)", len(Figures()))
	}
	if len(Tables()) != 2 {
		t.Errorf("tables = %d, want 2 (Tables 2-3)", len(Tables()))
	}
}

func yAt(s Series, x int) float64 {
	for i, v := range s.X {
		if v == x {
			return s.Y[i]
		}
	}
	return 0
}

var _ = fast
