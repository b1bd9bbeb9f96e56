package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Benchmark snapshots: the machine-readable perf trajectory. Each
// BENCH_<name>.json is an append-only array of snapshots, one entry per
// change that moved the numbers. `idxbench -json` writes fig5's; every other
// entry is a `go test -bench` run of the benchmarks in the package it
// measures. `idxprof diff` compares the newest entry against a new run,
// either form, and flags values that moved in their worse direction beyond a
// threshold, which is what CI gates on. Orientation comes from the baseline:
// each committed value carries its own (Better: "lower" for costs like
// makespans, "higher" for throughputs), and a `go test` run carries none.

// BenchValue is one named benchmark measurement.
type BenchValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Better is "lower" (a cost: makespan, ns/op) or "higher" (a
	// throughput). Empty values are informational: diffed but never flagged.
	Better string `json:"better,omitempty"`
	// res is half the place value of the last digit `go test` printed: a
	// baseline value within res of a parsed one is the same measurement.
	res float64
}

// BenchSnapshot is one BENCH_<name>.json entry.
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

// ReadBenchFile parses a bench file: one snapshot, an append-only trajectory
// (a JSON array of snapshots, oldest first) whose newest entry is the
// baseline a diff compares against, or `go test -bench` output
// (ParseGoBench).
func ReadBenchFile(path string) (BenchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchSnapshot{}, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(trimmed) > 0 && trimmed[0] == '[':
		var traj []BenchSnapshot
		if err := json.Unmarshal(data, &traj); err != nil {
			return BenchSnapshot{}, fmt.Errorf("metrics: parsing bench trajectory %s: %w", path, err)
		}
		if len(traj) == 0 {
			return BenchSnapshot{}, fmt.Errorf("metrics: bench trajectory %s is empty", path)
		}
		return traj[len(traj)-1], nil
	case len(trimmed) > 0 && trimmed[0] == '{':
		var b BenchSnapshot
		if err := json.Unmarshal(data, &b); err != nil {
			return BenchSnapshot{}, fmt.Errorf("metrics: parsing bench snapshot %s: %w", path, err)
		}
		return b, nil
	}
	return ParseGoBench(filepath.Base(path), data)
}

// ParseGoBench reads the text output of `go test -bench`. Only lines that
// start with "Benchmark" count: a name, an iteration count, then value-unit
// pairs. Each pair becomes one value, named by dropping the "Benchmark"
// prefix and the "-<GOMAXPROCS>" suffix, lower-casing the first path element
// and appending the unit with "a/b" written "a_per_b":
//
//	BenchmarkSched/fifo/seed1-2  1  5236512 ns/op  1140 jobs/ktick
//	-> sched/fifo/seed1/ns_per_op, sched/fifo/seed1/jobs_per_ktick
//
// Repeated lines (-count N) reduce to their median.
func ParseGoBench(name string, out []byte) (BenchSnapshot, error) {
	samples := map[string][]BenchValue{}
	var order []string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "Benchmark") || len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		prefix := goBenchName(f[0])
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return BenchSnapshot{}, fmt.Errorf("metrics: %s: bad value %q in %q", name, f[i], line)
			}
			n := prefix + "/" + strings.ReplaceAll(f[i+1], "/", "_per_")
			if samples[n] == nil {
				order = append(order, n)
			}
			samples[n] = append(samples[n], BenchValue{Name: n, Value: v, res: printedRes(f[i])})
		}
	}
	if len(order) == 0 {
		return BenchSnapshot{}, fmt.Errorf("metrics: %s holds no benchmark results", name)
	}
	snap := BenchSnapshot{Name: name}
	for _, n := range order {
		vs := samples[n]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Value < vs[j].Value })
		med := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			lo := vs[len(vs)/2-1]
			med.Value = (lo.Value + med.Value) / 2
			med.res = max(lo.res, med.res)
		}
		snap.Values = append(snap.Values, med)
	}
	return snap, nil
}

// goBenchName maps "BenchmarkSched/fifo/seed1-2" to "sched/fifo/seed1".
func goBenchName(s string) string {
	s = strings.TrimPrefix(s, "Benchmark")
	if i := strings.LastIndexByte(s, '-'); i >= 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		i = len(s)
	}
	return strings.ToLower(s[:i]) + s[i:]
}

// printedRes is half the place value of a printed number's last digit.
func printedRes(tok string) float64 {
	dot := strings.IndexByte(tok, '.')
	if dot < 0 {
		return 0.5
	}
	return 0.5 * math.Pow10(-(len(tok) - dot - 1))
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

// BenchDiff compares a run against its baseline value by value, each in
// the baseline's orientation. A value only the run has is skipped; a
// baseline value the run lacks is returned in missing, because a gate that
// lost its values compares nothing. threshold is the relative change beyond
// which a move counts, e.g. 0.05 for 5%.
func BenchDiff(old, cur BenchSnapshot, threshold float64) (deltas []BenchDelta, missing []string) {
	curVals := map[string]BenchValue{}
	for _, v := range cur.Values {
		curVals[v.Name] = v
	}
	for _, o := range old.Values {
		v, ok := curVals[o.Name]
		if !ok {
			missing = append(missing, o.Name)
			continue
		}
		d := BenchDelta{Name: o.Name, Old: o.Value, New: v.Value}
		switch {
		case math.Abs(v.Value-o.Value) <= v.res:
			// The baseline rounds to what go test printed: unchanged.
		case o.Value != 0:
			d.Rel = (v.Value - o.Value) / math.Abs(o.Value)
		case v.Value > 0:
			d.Rel = math.Inf(1)
		case v.Value < 0:
			d.Rel = math.Inf(-1)
		}
		worse := d.Rel > threshold
		better := d.Rel < -threshold
		if o.Better == "higher" {
			worse, better = better, worse
		}
		if o.Better != "" {
			d.Regression, d.Improvement = worse, better
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(missing)
	return deltas, missing
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

// RenderBenchDiff renders a diff as an aligned table: missing values,
// regressions and improvements first, then (unless onlyFlagged) the
// unchanged values.
func RenderBenchDiff(old, cur BenchSnapshot, deltas []BenchDelta, missing []string, onlyFlagged bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff: %s -> %s (%d comparable values)\n", old.Name, cur.Name, len(deltas))
	for _, name := range missing {
		fmt.Fprintf(&b, "  %-10s %s (in the baseline, not in this run)\n", "MISSING", name)
	}
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
