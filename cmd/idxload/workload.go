package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// definitions is benchmark/workloads.json: the six workloads and the shapes
// they share. They live beside the README rather than in Go so that a later
// benchmark issue changes a workload as data.
type definitions struct {
	Machine struct {
		Nodes        int `json:"nodes"`
		ProcsPerNode int `json:"procs_per_node"`
	} `json:"machine"`
	Circuit struct {
		Pieces        int     `json:"pieces"`
		NodesPerPiece int     `json:"nodes_per_piece"`
		WiresPerPiece int     `json:"wires_per_piece"`
		CrossFraction float64 `json:"cross_fraction"`
	} `json:"circuit"`
	Tenants    int        `json:"tenants"`
	TaskJitter float64    `json:"task_jitter"`
	Workloads  []workload `json:"workloads"`
	// KnownFailures are runnable by name (-only) but never part of a full
	// set or of BENCHMARK.json: each reproduces a defect the benchmark found,
	// so that the fix can be checked with the same harness.
	KnownFailures []workload `json:"known_failures"`
}

// workload is one closed-loop traffic mix. An op is what one client waits
// for: a job (kind http) or a fence-delimited block of timesteps (kind rt).
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "http" | "rt"
	Why  string `json:"why"`

	// http: idxserve flags, the durable journal (-data <scratch> -fsync
	// always), idxnode worker count, and the job shape.
	ServeArgs []string `json:"serve_args"`
	Durable   bool     `json:"durable"`
	Workers   int      `json:"workers"`
	Tasks     int      `json:"tasks"`
	Rounds    int      `json:"rounds"`

	// rt: the distribution path and the timesteps per fence.
	DCR        bool `json:"dcr"`
	FenceEvery int  `json:"fence_every"`

	// Twin, when set, is the same workload with one layer switched off — no
	// -trace-sample, or no journal. The traced pass runs the fixed-count
	// phase on both and reports the layer's cost by difference, which needs
	// nothing from inside the server.
	Twin *struct {
		ServeArgs []string `json:"serve_args"`
		Reports   string   `json:"reports"` // trace.overhead_pct | wal.time_share_pct
	} `json:"twin"`

	Clients   int `json:"clients"`
	Setups    int `json:"setups"`     // set-ups per run; setup_s is their median
	WarmupOps int `json:"warmup_ops"` // fixed warm-up, part of set-up
	CountOps  int `json:"count_ops"`  // fixed-count phase of the traced pass

	defs *definitions
}

func loadDefinitions(root string) (*definitions, error) {
	path := filepath.Join(root, "benchmark", "workloads.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definitions
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, list := range [][]workload{d.Workloads, d.KnownFailures} {
		for i := range list {
			w := &list[i]
			w.defs = &d
			if !w.wellFormed() {
				return nil, fmt.Errorf("%s: workload %q is malformed", path, w.Name)
			}
		}
	}
	return &d, nil
}

// wellFormed checks what the harness relies on: counts split evenly over the
// clients, and a single issuing goroutine for the in-process runtime.
func (w *workload) wellFormed() bool {
	return (w.Kind == "http" || (w.Kind == "rt" && w.Clients == 1)) && w.Clients >= 1 && w.Setups >= 1 &&
		w.WarmupOps >= 1 && w.CountOps >= 1 && w.CountOps%w.Clients == 0 && w.WarmupOps%w.Clients == 0
}

func (d *definitions) find(name string) (*workload, bool) {
	for _, list := range [][]workload{d.Workloads, d.KnownFailures} {
		for i := range list {
			if list[i].Name == name {
				return &list[i], true
			}
		}
	}
	return nil, false
}

// findRoot walks up from the working directory to the checkout root, which
// is the directory holding BENCHMARK.json (go run -C cmd/idxload starts the
// harness two levels below it).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// environment is recorded in every output file: a number means little
// without the box and the settings it came from.
type environment struct {
	Seed       int64          `json:"seed"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitCommit  string         `json:"git_commit"`
	DataFS     string         `json:"data_fs"`
	WindowS    float64        `json:"window_s"`
	TracedS    float64        `json:"traced_window_s"`
	Clients    map[string]int `json:"clients"`
}

func newEnvironment(root, outDir string, seed int64, d *definitions, window, traced float64) environment {
	env := environment{
		Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: "unknown", DataFS: fsType(outDir),
		WindowS: window, TracedS: traced, Clients: map[string]int{},
	}
	// The driver's checkout is not a git repository; "unknown" stays then.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	for _, w := range d.Workloads {
		env.Clients[w.Name] = w.Clients
	}
	return env
}

// fsMagic names the filesystems a checkout is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
	0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding dir. fsync is free on tmpfs, which is
// why serve.durable refuses to run there.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
