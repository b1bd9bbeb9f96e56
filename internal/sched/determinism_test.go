package sched

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// The scheduling determinism contract, mirroring the chaos/soak seed
// matrices: for every seed in SCHED_SEEDS (default "1,7,42"), replaying the
// same seeded arrival trace through the same configuration must produce a
// byte-identical rendered decision log — across repeats, and across every
// queue discipline. CI runs this under -race for each seed in its matrix.

func schedSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("SCHED_SEEDS")
	if env == "" {
		env = "1,7,42"
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("SCHED_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("SCHED_SEEDS is set but empty")
	}
	return seeds
}

// traceConfigs returns the configurations the determinism matrix replays:
// every discipline, with admission limits and a capacity dip in play.
func traceConfigs() map[string]func() TraceConfig {
	adm := Admission{
		MaxQueued: 256,
		Default:   Quota{Rate: 2, Burst: 4},
		Tenants: map[string]Quota{
			"a": {Weight: 1, Rate: 3, Burst: 6, MaxQueued: 128},
			"b": {Weight: 2, Rate: 3, Burst: 6},
			"c": {Weight: 4},
		},
	}
	capDip := func(tick int64) float64 {
		if tick > 40 && tick < 80 {
			return 0.5 // half the nodes dead for a window
		}
		return 1
	}
	return map[string]func() TraceConfig{
		"fifo": func() TraceConfig {
			return TraceConfig{Executors: 3, Queue: NewFIFO(), Admission: adm, CapacityAt: capDip}
		},
		"priority": func() TraceConfig {
			return TraceConfig{Executors: 3, Queue: NewStrictPriority(), Admission: adm, CapacityAt: capDip}
		},
		"fair": func() TraceConfig {
			return TraceConfig{Executors: 3, Queue: NewWeightedFair(1, adm.Weights(), 1), Admission: adm, CapacityAt: capDip}
		},
	}
}

func TestSchedDeterministicLog(t *testing.T) {
	opt := TraceOptions{
		Jobs: 400, MaxPriority: 3, MaxInterArrival: 2, MaxCost: 4,
		MinService: 2, MaxService: 10,
	}
	for _, seed := range schedSeeds(t) {
		tr := GenTrace(seed, opt)
		for name, mk := range traceConfigs() {
			first := RunTrace(tr, mk())
			logA := RenderLog(first.Log)
			if logA == "" {
				t.Fatalf("seed %d %s: empty decision log", seed, name)
			}
			for rep := 0; rep < 3; rep++ {
				got := RenderLog(RunTrace(tr, mk()).Log)
				if got != logA {
					t.Fatalf("seed %d %s: decision log differs on replay %d:\nfirst:\n%s\nreplay:\n%s",
						seed, name, rep, head(logA, 20), head(got, 20))
				}
			}
			// The trace itself is a pure function of the seed.
			if got := GenTrace(seed, opt); len(got.Jobs) != len(tr.Jobs) || got.Jobs[0] != tr.Jobs[0] {
				t.Fatalf("seed %d: GenTrace not reproducible", seed)
			}
		}
	}
}

// head returns the first n lines of s, for readable failure output.
func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestTraceOutcomesDeterministic locks the derived outcome numbers (the
// BENCH_sched.json inputs) to the log: same seed, same result.
func TestTraceOutcomesDeterministic(t *testing.T) {
	for _, seed := range schedSeeds(t) {
		tr := GenTrace(seed, TraceOptions{Jobs: 600, MaxInterArrival: 1})
		cfg := func() TraceConfig {
			return TraceConfig{Executors: 4, Queue: NewWeightedFair(1, map[string]int{"b": 2}, 1)}
		}
		a, b := RunTrace(tr, cfg()), RunTrace(tr, cfg())
		if a.Makespan != b.Makespan || a.JobsPerKTick != b.JobsPerKTick || a.P99Wait() != b.P99Wait() {
			t.Fatalf("seed %d: derived outcomes differ: %+v vs %+v", seed, a, b)
		}
		if a.Makespan <= 0 || a.JobsPerKTick <= 0 {
			t.Fatalf("seed %d: degenerate outcomes: makespan=%d rate=%f", seed, a.Makespan, a.JobsPerKTick)
		}
	}
}
