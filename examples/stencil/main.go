// Stencil: the PRK-style 2-D star stencil with a disjoint tile partition
// and an aliased halo partition, traced across timesteps — the structured
// workload of the paper's Figures 7–8.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"log"

	"indexlaunch/internal/apps/stencil"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
)

func main() {
	params := stencil.Params{N: 256, TilesX: 4, TilesY: 4}
	const iters = 10

	s, err := stencil.Build(params)
	if err != nil {
		log.Fatal(err)
	}
	runtime := rt.MustNew(rt.Config{
		Nodes: 4, ProcsPerNode: 2,
		DCR: true, IndexLaunches: true, VerifyLaunches: true,
	})
	app := stencil.NewApp(s, runtime)

	// Trace the iteration body: the first timestep captures the
	// dependence analysis, the rest replay it.
	for i := 0; i < iters; i++ {
		if err := runtime.BeginTrace(1); err != nil {
			log.Fatal(err)
		}
		if err := app.Step(); err != nil {
			log.Fatal(err)
		}
		if err := runtime.EndTrace(1); err != nil {
			log.Fatal(err)
		}
	}
	runtime.Fence()

	norm, err := region.SumF64(s.Grid.Root(), stencil.FieldOut)
	if err != nil {
		log.Fatal(err)
	}
	stats := runtime.Stats()
	fmt.Printf("stencil: %dx%d grid, %dx%d tiles, radius %d, %d timesteps\n",
		params.N, params.N, params.TilesX, params.TilesY, stencil.Radius, iters)
	fmt.Printf("output field sum: %.3f\n", norm)
	fmt.Printf("runtime: %d tasks, %d trace captures, %d replays, %d analyses skipped by tracing\n",
		stats.TasksExecuted, stats.TraceCaptures, stats.TraceReplays, stats.AnalysisSkipped)
}
