package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Benchmark snapshots: the machine-readable perf trajectory. `idxbench
// -json` writes one BENCH_<name>.json per figure; `idxprof diff` compares
// two snapshots and flags values that moved in their worse direction beyond
// a threshold, which is what CI gates on. Every value carries its own
// orientation (Better: "lower" for costs like makespans, "higher" for
// throughputs), so the comparator needs no out-of-band knowledge.

// BenchValue is one named benchmark measurement.
type BenchValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Better is "lower" (a cost: makespan, ns/op) or "higher" (a
	// throughput). Empty values are informational: diffed but never flagged.
	Better string `json:"better,omitempty"`
}

// BenchSnapshot is one BENCH_<name>.json file.
type BenchSnapshot struct {
	Name        string            `json:"name"`
	CreatedUnix int64             `json:"created_unix,omitempty"`
	Meta        map[string]string `json:"meta,omitempty"`
	Values      []BenchValue      `json:"values"`
}

// WriteFile writes the snapshot as indented JSON.
func (b BenchSnapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchFile parses a BENCH_<name>.json file: either one snapshot or an
// append-only trajectory — a JSON array of snapshots, oldest first, one entry
// per change that moved the numbers — whose newest entry is the baseline a
// diff compares against.
func ReadBenchFile(path string) (BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchSnapshot{}, err
	}
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		var traj []BenchSnapshot
		if err := json.Unmarshal(data, &traj); err != nil {
			return BenchSnapshot{}, fmt.Errorf("metrics: parsing bench trajectory %s: %w", path, err)
		}
		if len(traj) == 0 {
			return BenchSnapshot{}, fmt.Errorf("metrics: bench trajectory %s is empty", path)
		}
		return traj[len(traj)-1], nil
	}
	var b BenchSnapshot
	if err := json.Unmarshal(data, &b); err != nil {
		return BenchSnapshot{}, fmt.Errorf("metrics: parsing bench snapshot %s: %w", path, err)
	}
	return b, nil
}

// BenchDelta is one compared value of a bench diff.
type BenchDelta struct {
	Name     string
	Old, New float64
	// Rel is (new-old)/|old|; ±Inf when old is zero and new is not.
	Rel float64
	// Regression reports the value moved in its worse direction by more
	// than the comparator's threshold.
	Regression bool
	// Improvement reports the value moved in its better direction by more
	// than the threshold.
	Improvement bool
}

// BenchDiff compares two snapshots value by value. Values present in only
// one snapshot are skipped (the workload set changed; nothing comparable).
// threshold is the relative change beyond which a move counts, e.g. 0.05
// for 5%.
func BenchDiff(old, cur BenchSnapshot, threshold float64) []BenchDelta {
	oldVals := map[string]BenchValue{}
	for _, v := range old.Values {
		oldVals[v.Name] = v
	}
	var out []BenchDelta
	for _, v := range cur.Values {
		o, ok := oldVals[v.Name]
		if !ok {
			continue
		}
		d := BenchDelta{Name: v.Name, Old: o.Value, New: v.Value}
		switch {
		case o.Value != 0:
			d.Rel = (v.Value - o.Value) / math.Abs(o.Value)
		case v.Value > 0:
			d.Rel = math.Inf(1)
		case v.Value < 0:
			d.Rel = math.Inf(-1)
		}
		worse := d.Rel > threshold
		better := d.Rel < -threshold
		if v.Better == "higher" {
			worse, better = better, worse
		}
		if v.Better != "" {
			d.Regression, d.Improvement = worse, better
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Regressions counts the flagged regressions in a diff.
func Regressions(deltas []BenchDelta) int {
	n := 0
	for _, d := range deltas {
		if d.Regression {
			n++
		}
	}
	return n
}

// RenderBenchDiff renders a diff as an aligned table: regressions and
// improvements first, then (unless onlyFlagged) the unchanged values.
func RenderBenchDiff(old, cur BenchSnapshot, deltas []BenchDelta, onlyFlagged bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff: %s -> %s (%d comparable values)\n", old.Name, cur.Name, len(deltas))
	flagged := 0
	for _, d := range deltas {
		if !d.Regression && !d.Improvement {
			continue
		}
		flagged++
		verdict := "IMPROVED"
		if d.Regression {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(&b, "  %-10s %-56s %14.6g -> %-14.6g (%+.1f%%)\n",
			verdict, d.Name, d.Old, d.New, d.Rel*100)
	}
	if flagged == 0 {
		b.WriteString("  no values moved beyond the threshold\n")
	}
	if onlyFlagged {
		return b.String()
	}
	for _, d := range deltas {
		if d.Regression || d.Improvement {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %-56s %14.6g -> %-14.6g (%+.1f%%)\n",
			"ok", d.Name, d.Old, d.New, d.Rel*100)
	}
	return b.String()
}
