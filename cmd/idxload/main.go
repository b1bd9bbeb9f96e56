// Command idxload is the repository's wall-clock benchmark: six closed-loop
// workloads from HTTP submit to worker execution, measured from outside the
// system under test. See benchmark/README.md for the metrics and workloads.
//
// A full set — every workload untraced (end-to-end metrics) and traced
// (per-layer metrics), the layer probes, every output checked:
//
//	go run -C cmd/idxload . -seed 1 [-seconds 10] [-only rt.dcr] [-out a.json]
//
// One pass of one workload, as the benchmark driver runs it (BENCHMARK.json);
// the last line of standard output is the result as one JSON object:
//
//	go run -C cmd/idxload . --workload serve.small --seed 1 --seconds 10 --trace 0
//
// Two full sets held against the bounds of BENCHMARK.json:
//
//	go run -C cmd/idxload . -compare a.json b.json
//
// The exit code is non-zero when an op failed, an output check failed, or a
// comparison found a metric worse by more than its bound.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	var only string
	flag.StringVar(&only, "workload", "", "run this workload only")
	flag.StringVar(&only, "only", "", "same as -workload")
	seed := flag.Int64("seed", 1, "workload seed: the circuit graph, and each job's tenant and task count")
	seconds := flag.Float64("seconds", 10, "measured window of the untraced pass; the traced pass's windows are 0.4 of it")
	trace := flag.String("trace", "", "run one pass only and end with the driver's result line: 0 = untraced, 1 = traced")
	out := flag.String("out", "", "full set: also write the report here as JSON")
	compare := flag.Bool("compare", false, "compare two reports: idxload -compare a.json b.json")
	flag.Parse()
	if err := run(only, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "idxload:", err)
		os.Exit(1)
	}
}

func run(only string, seed int64, seconds float64, trace, out string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	c, err := readContract(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return runCompare(c, fromRoot(root, args[0]), fromRoot(root, args[1]))
	}
	if trace != "" && (only == "" || (trace != "0" && trace != "1")) {
		return fmt.Errorf("-trace takes 0 or 1 and needs -workload")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	h, err := newHarness(root, seed, seconds)
	if err != nil {
		return err
	}
	defer h.cleanup()
	// A signal must not leave daemons or scratch behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		h.cleanup()
		os.Exit(130)
	}()

	workloads := h.defs.Workloads
	if only != "" {
		w, ok := h.defs.find(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		workloads = []workload{*w}
	}
	passes := []bool{false, true}
	if trace != "" {
		passes = []bool{trace == "1"}
	}

	rep := &report{Env: newEnvironment(root, h.scratch, seed, h.defs, h.window.Seconds(), h.traced.Seconds())}
	failed := false
	for i := range workloads {
		for _, traced := range passes {
			p := h.runPass(&workloads[i], traced)
			p.print(os.Stdout)
			rep.Passes = append(rep.Passes, p)
			failed = failed || !p.Correct
		}
	}
	rep.BuildS = h.buildS
	fmt.Printf("build_s %.3f s (idxserve + idxnode, excluded from setup_s)\n", h.buildS)
	if out != "" {
		out = fromRoot(root, out)
		if err := rep.write(out); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if trace != "" {
		line, err := c.resultLine(rep.Passes[0])
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if failed {
		return fmt.Errorf("a workload failed its checks; see ERROR lines above")
	}
	return nil
}

// fromRoot resolves a relative path against the checkout root: go run -C
// moved the working directory into cmd/idxload, but the user typed the path
// where they stood.
func fromRoot(root, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(root, path)
}

func runCompare(c *contract, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s (commit %s, seed %d)\nb: %s (commit %s, seed %d)\n",
		pathA, a.Env.GitCommit, a.Env.Seed, pathB, b.Env.GitCommit, b.Env.Seed)
	worse := compareReports(os.Stdout, c, a, b)
	drift := 0
	if a.Env.Seed == b.Env.Seed {
		drift = countDrift(os.Stdout, c, a, b)
		fmt.Printf("%d exact-count layer metrics differ between the two sets\n", drift)
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse by more than their bound", worse)
	}
	return nil
}
