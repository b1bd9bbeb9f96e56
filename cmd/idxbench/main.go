// Command idxbench regenerates the paper's evaluation tables and figures
// from the command line:
//
//	idxbench                         # everything (Figures 4–10, Tables 2–3)
//	idxbench -fig 5                  # one figure
//	idxbench -table 2                # one table
//	idxbench -iters 30               # longer simulated runs
//	idxbench -max-nodes 128          # cap the node sweep (faster)
//	idxbench -fig 5 -json out        # also write out/BENCH_fig5.json
//
// The BENCH_<fig>.json snapshots feed the `idxprof diff` regression gate:
// run the same figure twice and diff the two files to see which series
// points moved beyond a threshold.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"indexlaunch/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure (4-10)")
	table := flag.Int("table", 0, "regenerate only this table (2-3)")
	extension := flag.Bool("extension", false, "also run the bulk-tracing extension experiment")
	chart := flag.Bool("chart", false, "render figures as ASCII charts instead of tables")
	iters := flag.Int("iters", 0, "simulated timesteps per data point (0 = default)")
	maxNodes := flag.Int("max-nodes", 0, "cap the node sweep (0 = paper's range)")
	profile := flag.String("profile", "", "with -fig: also profile the figure's DCR+IDX configuration and write a Chrome trace (view with idxprof)")
	jsonDir := flag.String("json", "", "write machine-readable BENCH_<fig>.json snapshots into this directory (compare runs with: idxprof diff)")
	flag.Parse()

	render := func(f bench.Figure) string {
		if *chart {
			return f.RenderChart()
		}
		return f.Render()
	}

	opts := bench.Options{Iters: *iters, MaxNodes: *maxNodes}
	writeSnap := func(f bench.Figure) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
			os.Exit(1)
		}
		snap := bench.BenchFromFigure(f)
		snap.CreatedUnix = time.Now().Unix()
		path := filepath.Join(*jsonDir, "BENCH_"+snap.Name+".json")
		if err := snap.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("bench: wrote %s (%d values); compare runs with: idxprof diff\n", path, len(snap.Values))
	}

	figures := bench.Figures()
	tables := bench.Tables()

	switch {
	case *fig != 0:
		gen, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "idxbench: no figure %d (have 4-10)\n", *fig)
			os.Exit(1)
		}
		f := gen(opts)
		fmt.Print(render(f))
		writeSnap(f)
		if *profile != "" {
			p, err := bench.ProfileFigure(*fig, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
				os.Exit(1)
			}
			if err := p.WriteFile(*profile); err != nil {
				fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("profile: wrote %s (%d events, %d nodes); inspect with: idxprof %s\n",
				*profile, len(p.Events), p.Nodes, *profile)
		}
	case *profile != "":
		fmt.Fprintln(os.Stderr, "idxbench: -profile requires -fig")
		os.Exit(2)
	case *table != 0:
		gen, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "idxbench: no table %d (have 2-3)\n", *table)
			os.Exit(1)
		}
		fmt.Print(gen().Render())
	default:
		var figIDs []int
		for id := range figures {
			figIDs = append(figIDs, id)
		}
		sort.Ints(figIDs)
		for _, id := range figIDs {
			f := figures[id](opts)
			fmt.Print(render(f))
			writeSnap(f)
			fmt.Println()
		}
		var tabIDs []int
		for id := range tables {
			tabIDs = append(tabIDs, id)
		}
		sort.Ints(tabIDs)
		for _, id := range tabIDs {
			fmt.Print(tables[id]().Render())
			fmt.Println()
		}
		if *extension {
			f := bench.FigBulkTracing(opts)
			fmt.Print(render(f))
			writeSnap(f)
		}
	}
}
