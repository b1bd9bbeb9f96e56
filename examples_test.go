package repro

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// exampleCases maps every runnable example to the key line it should print;
// TestExamplesCovered fails when a directory under examples/ is missing
// here, so new examples cannot silently rot.
var exampleCases = []struct {
	path string
	want string
}{
	{"./examples/quickstart", "sum of all task results: 49500000"},
	{"./examples/circuit", "max divergence"},
	{"./examples/stencil", "9 replays"},
	{"./examples/soleil", "0 fallbacks"},
	{"./examples/compilerdemo", "index launch (static)"},
	{"./examples/faulttol", "degraded-mode completion: sum=300000 (want 300000)"},
	{"./examples/chaos", "chaos-mode completion: sum=640 (want 640)"},
	{"./examples/cluster", "cluster completion: sum=8555 (want 8555) over 3 TCP nodes"},
	{"./examples/profiling", "critical path:"},
	{"./examples/metrics", "stage-latency histogram"},
	{"./examples/serve", "fair-share outcome"},
}

// TestExamplesRun builds and runs every example binary end to end, checking
// for the key line each should print. Skipped with -short.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are integration tests; skipped with -short")
	}
	for _, c := range exampleCases {
		c := c
		t.Run(strings.TrimPrefix(c.path, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", c.path).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", c.path, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s output missing %q:\n%s", c.path, c.want, out)
			}
		})
	}
}

// TestExamplesCovered verifies every directory under examples/ has a case
// in exampleCases (and that no case points at a deleted example).
func TestExamplesCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range exampleCases {
		covered[strings.TrimPrefix(c.path, "./examples/")] = true
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		onDisk[e.Name()] = true
		if !covered[e.Name()] {
			t.Errorf("examples/%s has no case in exampleCases; add a smoke test", e.Name())
		}
	}
	for name := range covered {
		if !onDisk[name] {
			t.Errorf("exampleCases lists ./examples/%s which does not exist", name)
		}
	}
}

// TestProfilePipeline exercises the profiling path end to end: idxbench
// dumps a Chrome trace of one figure's representative run, and idxprof
// loads it back and prints timelines, aggregates, and a critical path.
func TestProfilePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests; skipped with -short")
	}
	trace := t.TempDir() + "/p.json"
	out, err := exec.Command("go", "run", "./cmd/idxbench",
		"-fig", "5", "-max-nodes", "8", "-iters", "3", "-profile", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("idxbench -profile: %v\n%s", err, out)
	}
	out, err = exec.Command("go", "run", "./cmd/idxprof", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("idxprof: %v\n%s", err, out)
	}
	for _, want := range []string{"per-stage totals", "per-launch totals", "node timelines", "critical path:", "100.0%"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("idxprof output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchDiffPipeline exercises both blocking bench gates end to end, as
// CI runs them: idxbench -json writes fig5's snapshot, go test -bench
// prints the scheduler's, and idxprof diff compares each with its committed
// baseline. Both are deterministic, so every baseline value must be
// comparable and none may move even at threshold 0. A run that lacks the
// baseline's values must fail the gate, -warn or not.
func TestBenchDiffPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests; skipped with -short")
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "run", "./cmd/idxbench",
		"-fig", "5", "-max-nodes", "16", "-iters", "3", "-json", dir).CombinedOutput(); err != nil {
		t.Fatalf("idxbench -json: %v\n%s", err, out)
	}
	schedOut, err := exec.Command("go", "test", "-run", "-", "-bench", "^BenchmarkSched$",
		"-benchtime", "1x", "./internal/sched").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -bench BenchmarkSched: %v\n%s", err, schedOut)
	}
	if err := os.WriteFile(dir+"/sched.txt", schedOut, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, gate := range []struct{ baseline, run, want string }{
		{"BENCH_fig5.json", dir + "/BENCH_fig5.json", "(20 comparable values)"},
		{"BENCH_sched.json", dir + "/sched.txt", "(27 comparable values)"},
	} {
		out, err := exec.Command("go", "run", "./cmd/idxprof", "diff", "-threshold", "0",
			gate.baseline, gate.run).CombinedOutput()
		if err != nil {
			t.Fatalf("idxprof diff %s flagged a deterministic run: %v\n%s", gate.baseline, err, out)
		}
		for _, want := range []string{gate.want, "no values moved beyond the threshold"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("diff of %s missing %q:\n%s", gate.baseline, want, out)
			}
		}
	}
	for _, flags := range [][]string{nil, {"-warn"}} {
		args := append(append([]string{"run", "./cmd/idxprof", "diff"}, flags...), "BENCH_sched.json", "BENCH_wal.json")
		out, err := exec.Command("go", args...).CombinedOutput()
		if err == nil {
			t.Errorf("go %v passed a run that lacks every baseline value:\n%s", args, out)
		}
		for _, want := range []string{"MISSING    sched/fifo/seed1/jobs_per_ktick", "27 baseline value(s) missing"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("go %v output missing %q:\n%s", args, want, out)
			}
		}
	}
}

// TestCLIsRun smoke-tests the command-line tools.
func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration tests; skipped with -short")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"idxbench-table2", []string{"run", "./cmd/idxbench", "-table", "2"}, "Identity i"},
		{"idxbench-fig10", []string{"run", "./cmd/idxbench", "-fig", "10", "-iters", "3"}, "DCR, IDX (dynamic check)"},
		{"idxlang-demo", []string{"run", "./cmd/idxlang", "-demo", "-run"}, "index launches"},
		{"idxsim", []string{"run", "./cmd/idxsim", "-app", "stencil", "-nodes", "16", "-iters", "3"}, "throughput"},
		{"idxserve-trace", []string{"run", "./cmd/idxserve", "-trace", "-seed", "42", "-jobs", "60",
			"-queue", "fair", "-weights", "a=1,b=2,c=4"}, "# seed 42:"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%v output missing %q:\n%s", c.args, c.want, out)
			}
		})
	}
}
