// Command idxlang compiles Regent-like programs with the hybrid
// index-launch optimizer and reports, per loop, whether it becomes a static
// index launch, a dynamically guarded one, or a task loop (paper §4).
//
//	idxlang file.rg           # print the optimizer report
//	idxlang -run file.rg      # also execute against a synthetic binding
//	idxlang -demo             # compile the built-in demo program
//	idxlang -run -demo -metrics 127.0.0.1:8080  # live /metrics + /statusz
//
// In -run mode, every partition named by the program is bound to a fresh
// 1-d collection (-elems elements split into -blocks blocks) and every task
// to a no-op body; the execution statistics show which path each loop took.
package main

import (
	"flag"
	"fmt"
	"os"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/lang"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
)

const demo = `-- Listing 1 of the paper: a trivial and a non-trivial functor.
task foo(r) where reads(r), writes(r) do end
task bar(q) where reads(q), writes(q) do end

var N = 10
for i = 0, N do -- parallel
  foo(p[i])
end

for i = 0, N do -- parallel
  bar(q[(3*i+2) % 32])
end

-- Listing 2 of the paper: statically rejected.
task baz(c1, c2) where reads(c1), writes(c2) do end
for i = 0, 5 do
  baz(p[i], q[i % 3])
end
`

func main() {
	runIt := flag.Bool("run", false, "execute the plan against a synthetic binding")
	useDemo := flag.Bool("demo", false, "compile the built-in demo program")
	blocks := flag.Int("blocks", 32, "blocks per synthetic partition in -run mode")
	elems := flag.Int64("elems", 1024, "elements per synthetic collection in -run mode")
	profile := flag.String("profile", "", "with -run: write a pipeline profile as Chrome trace JSON (view with idxprof)")
	metricsAddr := flag.String("metrics", "", "with -run: serve the runtime's live /metrics, /metrics.json and /statusz on this address during execution")
	flag.Parse()

	src := demo
	switch {
	case *useDemo:
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: idxlang [-run] [-demo] [file.rg]")
		os.Exit(2)
	}

	plan, err := lang.Compile(src)
	if err != nil {
		fail(err)
	}
	fmt.Print(plan.Report())

	if !*runIt {
		if *profile != "" {
			fmt.Fprintln(os.Stderr, "idxlang: -profile requires -run")
			os.Exit(2)
		}
		if *metricsAddr != "" {
			fmt.Fprintln(os.Stderr, "idxlang: -metrics requires -run")
			os.Exit(2)
		}
		return
	}
	var rec *obs.Recorder
	if *profile != "" {
		rec = obs.NewRecorder("rt", 4, 1<<14)
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
	}
	b, err := syntheticBinding(plan, *blocks, *elems, rec, reg)
	if err != nil {
		fail(err)
	}
	if reg != nil {
		srv, err := metrics.Serve(*metricsAddr, reg, func() any { return b.RT.Status() })
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: serving %s/metrics and %s/statusz (watch with: idxprof watch %s)\n",
			srv.URL(), srv.URL(), srv.Addr())
	}
	stats, err := lang.Exec(plan, b)
	if err != nil {
		fail(err)
	}
	if rec != nil {
		b.RT.Fence()
		rec.SetWall(rec.Now())
		p := rec.Snapshot()
		if err := p.WriteFile(*profile); err != nil {
			fail(err)
		}
		fmt.Printf("profile: wrote %s (%d events); inspect with: idxprof %s\n",
			*profile, len(p.Events), *profile)
	}
	fmt.Printf("\nexecution: %d index launches, %d dynamic checks (%d functor evals), %d task loops, %d single tasks\n",
		stats.IndexLaunches, stats.DynamicBranches, stats.CheckEvals, stats.TaskLoops, stats.SingleTasks)
	rtStats := b.RT.Stats()
	fmt.Printf("runtime:   %d tasks executed, %d version-map queries, %d dependence edges\n",
		rtStats.TasksExecuted, rtStats.VersionQueries, rtStats.DepEdges)
}

// syntheticBinding builds a no-op task for every declared task and a fresh
// partitioned collection for every partition name the plan references.
func syntheticBinding(plan *lang.Plan, blocks int, elems int64, rec *obs.Recorder, reg *metrics.Registry) (*lang.Binding, error) {
	r, err := rt.New(rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Profile: rec, Metrics: reg})
	if err != nil {
		return nil, err
	}
	b := &lang.Binding{
		RT:    r,
		Tasks: map[string]core.TaskID{},
		Parts: map[string]*region.Partition{},
	}
	for _, td := range plan.Checked.Program.Tasks {
		id, err := r.RegisterTask(td.Name, func(*rt.Context) ([]byte, error) { return nil, nil })
		if err != nil {
			return nil, err
		}
		b.Tasks[td.Name] = id
	}
	for _, name := range partitionNames(plan) {
		fs := region.MustFieldSpace(region.Field{ID: 0, Name: "v", Kind: region.F64})
		tree, err := region.NewTree(name, domain.Range1(0, elems-1), fs)
		if err != nil {
			return nil, err
		}
		part, err := tree.PartitionEqual(tree.Root(), name, blocks)
		if err != nil {
			return nil, err
		}
		b.Parts[name] = part
	}
	return b, nil
}

func partitionNames(plan *lang.Plan) []string {
	seen := map[string]bool{}
	var names []string
	var walk func(ops []lang.PlanOp)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	walk = func(ops []lang.PlanOp) {
		for _, op := range ops {
			switch o := op.(type) {
			case *lang.OpCandidateLoop:
				for _, lp := range o.Launches {
					for _, a := range lp.Args {
						add(a.Partition)
					}
				}
			case *lang.OpControlLoop:
				walk(o.Body)
			case *lang.OpSingleLaunch:
				for _, a := range o.Stmt.Args {
					add(a.Partition)
				}
			}
		}
	}
	walk(plan.Ops)
	return names
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "idxlang: %v\n", err)
	os.Exit(1)
}
