package circuit

import (
	"math"
	"runtime"
	"testing"

	"indexlaunch/internal/rt"
)

// blockParams is the circuit of the rt.dcr / rt.central benchmark workloads
// (benchmark/workloads.json): 256 pieces of 16 nodes and 32 wires, 10 %
// cross-piece wires, on 4 nodes × 2 processors.
func blockParams(seed int64) Params {
	return Params{Pieces: 256, NodesPerPiece: 16, WiresPerPiece: 32, CrossFraction: 0.1, Seed: seed}
}

func blockRuntime(dcr bool) *rt.Runtime {
	return rt.MustNew(rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true, VerifyLaunches: true})
}

// blockSteps is one block of the workloads: this many timesteps back to back,
// then a FenceErr.
const blockSteps = 20

// runBlock runs one block; traced, each timestep is one episode of trace 1:
// the first captures, the rest replay.
func runBlock(app *App, traced bool) error {
	for s := 0; s < blockSteps; s++ {
		if traced {
			if err := app.RT.BeginTrace(1); err != nil {
				return err
			}
		}
		if err := app.Step(); err != nil {
			return err
		}
		if traced {
			if err := app.RT.EndTrace(1); err != nil {
				return err
			}
		}
	}
	return app.RT.FenceErr()
}

// BenchmarkCircuitBlock measures one block of the rt.dcr (DCR) and rt.central
// (centralized) workloads in process — 20 timesteps, 15360 point tasks with
// real region requirements — untraced and under capture/replay: ns, bytes
// and allocations per block and per point, and the garbage collections one
// block sets off.
func BenchmarkCircuitBlock(b *testing.B) {
	for _, dcr := range []bool{true, false} {
		name := "centralized"
		if dcr {
			name = "DCR"
		}
		for _, tracing := range []string{"off", "traced"} {
			b.Run(name+"/"+tracing, func(b *testing.B) {
				c, err := Build(blockParams(1))
				if err != nil {
					b.Fatal(err)
				}
				r := blockRuntime(dcr)
				defer r.Shutdown()
				app := NewApp(c, r)
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := runBlock(app, tracing == "traced"); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				points := float64(b.N * blockSteps * 3 * int(c.LaunchDomain.Volume()))
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/points, "B/point")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/points, "allocs/point")
				b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/block")
			})
		}
	}
}

// TestCircuitBlockExactCounters pins the dependence analysis of the
// benchmark circuit: two blocks (40 timesteps, seed 1) issue exactly these
// version-map queries — one per (point, requirement, field) — and return
// exactly these distinct dependence edges, on both paths. Any change to the
// edge set, however harmless it looks, moves DepEdges.
func TestCircuitBlockExactCounters(t *testing.T) {
	const (
		wantQueries = 133120
		wantEdges   = 314818
		wantTasks   = 2 * blockSteps * 3 * 256
	)
	for _, dcr := range []bool{true, false} {
		c, err := Build(blockParams(1))
		if err != nil {
			t.Fatal(err)
		}
		r := blockRuntime(dcr)
		app := NewApp(c, r)
		for range 2 {
			if err := runBlock(app, false); err != nil {
				t.Fatal(err)
			}
		}
		r.Shutdown()
		st := r.Stats()
		if st.VersionQueries != wantQueries || st.DepEdges != wantEdges || st.TasksExecuted != wantTasks {
			t.Errorf("DCR=%v: VersionQueries %d DepEdges %d TasksExecuted %d, want %d %d %d",
				dcr, st.VersionQueries, st.DepEdges, st.TasksExecuted, wantQueries, wantEdges, wantTasks)
		}
		ref, err := Build(blockParams(1))
		if err != nil {
			t.Fatal(err)
		}
		Reference(ref, 2*blockSteps)
		if d := math.Abs(c.TotalVoltage() - ref.TotalVoltage()); !(d <= 1e-9) {
			t.Errorf("DCR=%v: total voltage %.13g, reference %.13g", dcr, c.TotalVoltage(), ref.TotalVoltage())
		}
	}
}
