package rt_test

import (
	"slices"
	"testing"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/rt"
)

// A capture stores each field's footprint as sorted, disjoint runs, not as
// the points' intervals: one step of the benchmark circuit (the rt.dcr
// workload's) writes 8 fields and reads 4, each over its whole tree, so a
// replay enters the version map with one run per field.
func TestTraceFootprintOneRunPerField(t *testing.T) {
	c, err := circuit.Build(circuit.Params{Pieces: 256, NodesPerPiece: 16, WiresPerPiece: 32, CrossFraction: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.MustNew(rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true, VerifyLaunches: true})
	defer r.Shutdown()
	app := circuit.NewApp(c, r)
	if err := r.BeginTrace(1); err != nil {
		t.Fatal(err)
	}
	if err := app.Step(); err != nil {
		t.Fatal(err)
	}
	if err := r.EndTrace(1); err != nil {
		t.Fatal(err)
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	writes, reads := rt.TemplateRuns(r, 1)
	if len(writes) != 8 || len(reads) != 4 || slices.Max(writes) != 1 || slices.Max(reads) != 1 {
		t.Errorf("runs per field: writes %v, reads %v; want 8 and 4 fields of one run each", writes, reads)
	}
}
