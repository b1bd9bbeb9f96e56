package sim

import (
	"fmt"
	"reflect"
	"testing"

	"indexlaunch/internal/obs"
)

// depProgram chains launches across iterations and within the body —
// same-point, halo and barrier dependences — with a checked launch, so every
// engine path records execute spans bound by predecessors.
func depProgram(points int) Program {
	return Program{
		Name:     "deps",
		Prologue: []Launch{{Name: "init", Points: points, ComputeSec: 2e-5}},
		Body: []Launch{
			{Name: "halo", Points: points, ComputeSec: 1e-4, CommBytes: 1e4,
				Deps: []DepSpec{Neighbors1D(1, 1, points)}},
			{Name: "update", Points: points, ComputeSec: 5e-5, Args: 2, NonTrivialFunctor: true,
				Deps: []DepSpec{SamePoint(1)}},
		},
		Iterations: 4,
		Epilogue:   []Launch{{Name: "reduce", Points: 1, ComputeSec: 1e-5, Deps: []DepSpec{BarrierOn(1)}}},
	}
}

// TestProfilingDoesNotPerturbResult: attaching a recorder changes nothing
// the simulation returns, on every (distribution, launch, tracing) path, and
// the recorded profile yields a critical path that fits inside its wall.
func TestProfilingDoesNotPerturbResult(t *testing.T) {
	const nodes = 4
	prog := depProgram(12)
	for _, dcr := range []bool{true, false} {
		for _, idx := range []bool{true, false} {
			for _, tracing := range []string{"off", "task", "bulk"} {
				cfg := simpleConfig(nodes, dcr, idx)
				cfg.Tracing = tracing != "off"
				cfg.BulkTracing = tracing == "bulk"
				t.Run(fmt.Sprintf("%s/tracing=%s", cfg.Label(), tracing), func(t *testing.T) {
					plain, err := Run(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					rec := obs.NewRecorder("sim", nodes, 1<<12)
					cfg.Profile = rec
					profiled, err := Run(cfg, prog)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, profiled) {
						t.Errorf("profiling perturbed the result:\n plain    %+v\n profiled %+v", plain, profiled)
					}
					p := rec.Snapshot()
					if p.Dropped != 0 {
						t.Fatalf("%d events dropped; ring too small", p.Dropped)
					}
					cp := obs.CriticalPath(p)
					if len(cp.Steps) == 0 {
						t.Fatal("profile has no critical path")
					}
					if cp.TotalNS > p.WallNS {
						t.Errorf("critical path %d ns exceeds wall %d ns", cp.TotalNS, p.WallNS)
					}
				})
			}
		}
	}
}
