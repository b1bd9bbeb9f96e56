// Command idxsim runs one cluster simulation of an application workload
// under a chosen runtime configuration and prints the makespan, throughput
// and resource usage:
//
//	idxsim -app circuit -nodes 512 -dcr -idx -tracing
//	idxsim -app soleil-full -nodes 32 -dcr -idx -checks=false
//	idxsim -app circuit -nodes 16 -profile p.json   # pipeline profile for idxprof
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/apps/soleil"
	"indexlaunch/internal/apps/stencil"
	"indexlaunch/internal/machine"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/sim"
)

func main() {
	app := flag.String("app", "circuit", "workload: circuit | stencil | soleil-fluid | soleil-full")
	nodes := flag.Int("nodes", 64, "cluster size")
	iters := flag.Int("iters", 20, "timesteps")
	dcr := flag.Bool("dcr", true, "dynamic control replication")
	idx := flag.Bool("idx", true, "index launches")
	tracing := flag.Bool("tracing", true, "runtime tracing")
	checks := flag.Bool("checks", true, "dynamic projection-functor checks")
	weak := flag.Bool("weak", true, "weak scaling (fixed per-node problem); false = strong")
	overdecompose := flag.Int("overdecompose", 1, "tasks per node (circuit)")
	breakdown := flag.Bool("breakdown", false, "print per-launch processor-time breakdown")
	profile := flag.String("profile", "", "write a pipeline profile of the run as Chrome trace JSON (view with idxprof)")
	flag.Parse()

	var prog sim.Program
	var describe func(res sim.Result)
	switch *app {
	case "circuit":
		wiresPerTask := 2e5 / float64(*overdecompose)
		if !*weak {
			wiresPerTask = 5.1e6 / float64(*nodes**overdecompose)
		}
		prog = circuit.SimProgram(circuit.SimParams{
			Nodes: *nodes, TasksPerNode: *overdecompose, WiresPerTask: wiresPerTask, Iters: *iters,
		})
		total := wiresPerTask * float64(*nodes**overdecompose)
		describe = func(res sim.Result) {
			fmt.Printf("throughput: %.3g wires/s (%.3g per node)\n",
				circuit.WiresPerSecond(total, *iters, res.MakespanSec),
				circuit.WiresPerSecond(total, *iters, res.MakespanSec)/float64(*nodes))
		}
	case "stencil":
		cells := 9e8
		if !*weak {
			cells = 9e8 / float64(*nodes)
		}
		prog = stencil.SimProgram(stencil.SimParams{Nodes: *nodes, CellsPerTask: cells, Iters: *iters})
		total := cells * float64(*nodes)
		describe = func(res sim.Result) {
			fmt.Printf("throughput: %.3g cells/s (%.3g per node)\n",
				stencil.CellsPerSecond(total, *iters, res.MakespanSec),
				stencil.CellsPerSecond(total, *iters, res.MakespanSec)/float64(*nodes))
		}
	case "soleil-fluid", "soleil-full":
		full := *app == "soleil-full"
		prog = soleil.SimProgram(soleil.SimParams{
			Nodes: *nodes, DOM: full, Particles: full, Iters: *iters,
		})
		describe = func(res sim.Result) {
			fmt.Printf("throughput: %.3f iter/s per node\n",
				soleil.IterPerSecondPerNode(*iters, res.MakespanSec))
		}
	default:
		fmt.Fprintf(os.Stderr, "idxsim: unknown app %q\n", *app)
		os.Exit(2)
	}

	cfg := sim.Config{
		Machine: machine.PizDaint(*nodes), Cost: sim.DefaultCosts(),
		DCR: *dcr, IDX: *idx, Tracing: *tracing, DynChecks: *checks,
	}
	var rec *obs.Recorder
	if *profile != "" {
		rec = obs.NewRecorder("sim", *nodes, 1<<14)
		cfg.Profile = rec
	}
	res, err := sim.Run(cfg, prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("config:     %s, tracing=%v, checks=%v, %d nodes\n", cfg.Label(), *tracing, *checks, *nodes)
	fmt.Printf("makespan:   %.6f s for %d iterations (%d launches, %d tasks)\n",
		res.MakespanSec, *iters, res.Launches, res.Tasks)
	describe(res)
	fmt.Printf("runtime cores busy: %.4f s total; processors busy: %.4f s; dynamic checks: %.6f s\n",
		res.RuntimeBusySec, res.GPUBusySec, res.CheckSec)
	if rec != nil {
		p := rec.Snapshot()
		if err := p.WriteFile(*profile); err != nil {
			fmt.Fprintf(os.Stderr, "idxsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile: wrote %s (%d events); inspect with: idxprof %s\n",
			*profile, len(p.Events), *profile)
	}
	if *breakdown {
		names := make([]string, 0, len(res.BusyByLaunch))
		for name := range res.BusyByLaunch {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("processor time by launch:")
		for _, name := range names {
			busy := res.BusyByLaunch[name]
			fmt.Printf("  %-24s %10.4f s (%5.1f%%)\n", name, busy, busy/res.GPUBusySec*100)
		}
	}
}
