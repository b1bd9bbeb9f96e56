package sim

import (
	"math"
	"testing"

	"indexlaunch/internal/machine"
)

func simpleConfig(nodes int, dcr, idx bool) Config {
	return Config{
		Machine:   machine.PizDaint(nodes),
		Cost:      DefaultCosts(),
		DCR:       dcr,
		IDX:       idx,
		DynChecks: true,
	}
}

func flatProgram(points int, compute float64, iters int) Program {
	return Program{
		Name: "flat",
		Body: []Launch{{
			Name: "work", Points: points, ComputeSec: compute,
			Deps: []DepSpec{SamePoint(1)},
		}},
		Iterations: iters,
	}
}

func TestRunBasicMakespan(t *testing.T) {
	// One launch, one node, one task: makespan = runtime overhead + launch
	// overhead + compute.
	cfg := simpleConfig(1, true, true)
	prog := Program{Name: "one", Body: []Launch{{Name: "t", Points: 1, ComputeSec: 1e-3}}, Iterations: 1}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 1 || res.Launches != 1 {
		t.Errorf("tasks=%d launches=%d", res.Tasks, res.Launches)
	}
	if res.MakespanSec < 1e-3 || res.MakespanSec > 2e-3 {
		t.Errorf("makespan = %v, want ~1ms", res.MakespanSec)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := simpleConfig(1, true, true)
	if _, err := Run(cfg, Program{Name: "empty"}); err == nil {
		t.Error("empty program should error")
	}
	if _, err := Run(cfg, Program{Body: []Launch{{Points: 0}}, Iterations: 1}); err == nil {
		t.Error("zero-point launch should error")
	}
	bad := cfg
	bad.Machine.Nodes = 0
	if _, err := Run(bad, flatProgram(1, 1e-3, 1)); err == nil {
		t.Error("invalid machine should error")
	}
}

func TestPerfectWeakScalingWithDCRIDX(t *testing.T) {
	// Independent equal tasks, one per node: time should stay nearly flat
	// as nodes grow (perfect weak scaling minus small overheads).
	base, err := Run(simpleConfig(1, true, true), flatProgram(1, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(simpleConfig(256, true, true), flatProgram(256, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	eff := base.MakespanSec / big.MakespanSec
	if eff < 0.9 {
		t.Errorf("DCR+IDX weak efficiency at 256 nodes = %.3f, want > 0.9", eff)
	}
}

func TestDCRNoIDXPaysPerTaskIssuance(t *testing.T) {
	// With No IDX every node issues all P tasks; at large N the runtime
	// core becomes the bottleneck and efficiency drops well below IDX.
	n := 1024
	idx, err := Run(simpleConfig(n, true, true), flatProgram(n, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := Run(simpleConfig(n, true, false), flatProgram(n, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if noIdx.MakespanSec <= idx.MakespanSec*1.2 {
		t.Errorf("DCR no-IDX (%.4fs) should be clearly slower than IDX (%.4fs) at %d nodes",
			noIdx.MakespanSec, idx.MakespanSec, n)
	}
}

func TestCentralizedBottleneck(t *testing.T) {
	// Without DCR, node 0 serializes issuance and sends; at scale this is
	// far worse than DCR.
	n := 512
	dcr, err := Run(simpleConfig(n, true, true), flatProgram(n, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	central, err := Run(simpleConfig(n, false, false), flatProgram(n, 1e-2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if central.MakespanSec <= dcr.MakespanSec {
		t.Errorf("centralized (%.4fs) should be slower than DCR (%.4fs)",
			central.MakespanSec, dcr.MakespanSec)
	}
}

func TestCentralizedIDXBroadcastBeatsPerTaskSends(t *testing.T) {
	// No DCR, tracing off: compact slices through the broadcast tree beat
	// per-task sends (the Fig 6 effect).
	n := 256
	idx, err := Run(simpleConfig(n, false, true), flatProgram(n, 1e-3, 10))
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := Run(simpleConfig(n, false, false), flatProgram(n, 1e-3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if idx.MakespanSec >= noIdx.MakespanSec {
		t.Errorf("No-DCR IDX (%.4fs) should beat No-IDX (%.4fs) without tracing",
			idx.MakespanSec, noIdx.MakespanSec)
	}
}

func TestTracingForcesExpansionReversal(t *testing.T) {
	// No DCR with tracing on: the forced expansion makes IDX slightly
	// worse than No IDX — the paper's Figures 4–5 anomaly.
	n := 256
	cfgIdx := simpleConfig(n, false, true)
	cfgIdx.Tracing = true
	cfgNo := simpleConfig(n, false, false)
	cfgNo.Tracing = true
	idx, err := Run(cfgIdx, flatProgram(n, 1e-3, 10))
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := Run(cfgNo, flatProgram(n, 1e-3, 10))
	if err != nil {
		t.Fatal(err)
	}
	if idx.MakespanSec <= noIdx.MakespanSec {
		t.Errorf("with tracing, No-DCR IDX (%.5fs) should be slightly worse than No-IDX (%.5fs)",
			idx.MakespanSec, noIdx.MakespanSec)
	}
	if idx.MakespanSec > noIdx.MakespanSec*1.5 {
		t.Errorf("the regression should be slight: %.5fs vs %.5fs", idx.MakespanSec, noIdx.MakespanSec)
	}
}

func TestTracingReducesAnalysisCost(t *testing.T) {
	// DCR+IDX with tracing: replays skip logical analysis, so runtime busy
	// time drops versus no tracing.
	cfg := simpleConfig(64, true, true)
	traced := cfg
	traced.Tracing = true
	plain, err := Run(cfg, flatProgram(64, 1e-4, 20))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(traced, flatProgram(64, 1e-4, 20))
	if err != nil {
		t.Fatal(err)
	}
	if tr.RuntimeBusySec >= plain.RuntimeBusySec {
		t.Errorf("tracing should reduce runtime busy time: %.6f vs %.6f",
			tr.RuntimeBusySec, plain.RuntimeBusySec)
	}
}

func TestDynamicCheckCostAccounted(t *testing.T) {
	cfg := simpleConfig(4, true, true)
	prog := Program{
		Name: "checked",
		Body: []Launch{{
			Name: "sweep", Points: 1000, ComputeSec: 1e-5,
			NonTrivialFunctor: true, Args: 3,
		}},
		Iterations: 2,
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1000 * 3 * cfg.Cost.CheckPerPointArg
	if math.Abs(res.CheckSec-want) > 1e-12 {
		t.Errorf("check time = %v, want %v", res.CheckSec, want)
	}
	// Disabled checks cost nothing.
	cfg.DynChecks = false
	res, err = Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckSec != 0 {
		t.Errorf("check time with checks off = %v", res.CheckSec)
	}
	// Tracing elides checks on replays.
	cfg.DynChecks = true
	cfg.Tracing = true
	res, err = Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CheckSec-want/2) > 1e-12 {
		t.Errorf("replayed check time = %v, want %v", res.CheckSec, want/2)
	}
}

func TestDependencyCriticalPath(t *testing.T) {
	// A chain of launches each depending on all tasks of the previous one
	// must serialize: makespan >= iters * compute.
	cfg := simpleConfig(8, true, true)
	prog := Program{
		Name: "chain",
		Body: []Launch{{
			Name: "stage", Points: 8, ComputeSec: 1e-3,
			Deps: []DepSpec{All(1, 8)},
		}},
		Iterations: 10,
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec < 10*1e-3 {
		t.Errorf("makespan %.4fs below serial bound 10ms", res.MakespanSec)
	}
}

func TestCommBytesAddLatency(t *testing.T) {
	// Same-point deps with owners on different nodes pay network transfer.
	cfg := simpleConfig(2, true, true)
	mk := func(bytes float64) float64 {
		prog := Program{
			Name: "comm",
			Body: []Launch{
				{Name: "a", Points: 2, ComputeSec: 1e-4},
				// Reverse ownership so point 0's dependency lives remotely.
				{Name: "b", Points: 2, ComputeSec: 1e-4, CommBytes: bytes,
					Owner: func(p, nodes int) int { return (p + 1) % nodes },
					Deps:  []DepSpec{SamePoint(1)}},
			},
			Iterations: 1,
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res.MakespanSec
	}
	small := mk(0)
	big := mk(1e9) // 1 GB at 10 GB/s = 100 ms
	if big-small < 0.09 {
		t.Errorf("1GB halo should add ~100ms: %.4fs vs %.4fs", big, small)
	}
}

func TestGPUSlotsSerializeOversubscription(t *testing.T) {
	// 4 tasks on 1 node with 1 GPU serialize; on 4 nodes they run
	// concurrently.
	one, err := Run(simpleConfig(1, true, true), flatProgram(4, 1e-3, 1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(simpleConfig(4, true, true), flatProgram(4, 1e-3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if one.MakespanSec < 4e-3 {
		t.Errorf("oversubscribed makespan %.4fs below 4ms serial bound", one.MakespanSec)
	}
	if four.MakespanSec > 2e-3 {
		t.Errorf("distributed makespan %.4fs should be ~1ms", four.MakespanSec)
	}
}

func TestConfigLabel(t *testing.T) {
	cases := map[string]Config{
		"DCR, IDX":       {DCR: true, IDX: true},
		"DCR, No IDX":    {DCR: true},
		"No DCR, IDX":    {IDX: true},
		"No DCR, No IDX": {},
	}
	for want, cfg := range cases {
		if got := cfg.Label(); got != want {
			t.Errorf("label = %q, want %q", got, want)
		}
	}
}

func TestCustomOwnerPlacement(t *testing.T) {
	// All tasks pinned to node 3: its GPU serializes them.
	cfg := simpleConfig(4, true, true)
	prog := Program{
		Name: "pinned",
		Body: []Launch{{
			Name: "p", Points: 4, ComputeSec: 1e-3,
			Owner: func(p, nodes int) int { return 3 },
		}},
		Iterations: 1,
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec < 4e-3 {
		t.Errorf("pinned tasks should serialize: %.4fs", res.MakespanSec)
	}
}

func TestHopLatencyReducesToClosedFormWhenZero(t *testing.T) {
	// With HopLatency zeroed, the per-hop arrival walk must reproduce the
	// closed form t0 + depth·(latency + handling) — i.e. the transport term
	// adds nothing beyond the calibrated HopLatency itself.
	cfg := simpleConfig(8, false, true)
	cfg.Cost.HopLatency = 0
	res, err := Run(cfg, prog8())
	if err != nil {
		t.Fatal(err)
	}
	withLat := simpleConfig(8, false, true)
	res2, err := Run(withLat, prog8())
	if err != nil {
		t.Fatal(err)
	}
	// node 7 sits at depth 3: the calibrated run is later by at most
	// depth·HopLatency plus scheduling effects, never earlier.
	if res2.MakespanSec < res.MakespanSec {
		t.Errorf("hop latency should not shorten the makespan: %v < %v",
			res2.MakespanSec, res.MakespanSec)
	}
	if res2.MakespanSec > res.MakespanSec+10*withLat.Cost.HopLatency {
		t.Errorf("hop latency overcharged: %v vs %v", res2.MakespanSec, res.MakespanSec)
	}
}

func prog8() Program { return flatProgram(8, 1e-3, 2) }
