package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported number. A nil Value is "not measurable here" — a
// layer that does not exist on the workload, or a family whose clock reads
// are off in that configuration — and is written as null, never as 0: zero
// is a measurement.
type metric struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	// Q1 and Q3 are the quartiles of the values Value is the median of (the
	// window's slices, or the run's set-ups); N is the sample count behind a
	// latency.
	Q1   *float64 `json:"q1,omitempty"`
	Q3   *float64 `json:"q3,omitempty"`
	N    int      `json:"n,omitempty"`
	Note string   `json:"note,omitempty"`
}

func number(v float64, unit, better string) metric {
	return metric{Value: &v, Unit: unit, Better: better}
}

func null(unit, note string) metric { return metric{Unit: unit, Note: note} }

// spread attaches the quartiles of vals.
func (m metric) spread(vals []float64) metric {
	if len(vals) >= 2 {
		q1, q3 := quartiles(vals)
		m.Q1, m.Q3 = &q1, &q3
	}
	return m
}

func (m metric) String() string {
	if m.Value == nil {
		return fmt.Sprintf("%14s %-6s %s", "null", m.Unit, m.Note)
	}
	s := fmt.Sprintf("%14.6g %-6s", *m.Value, m.Unit)
	if m.Q1 != nil {
		s += fmt.Sprintf(" [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
	}
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Better != "" {
		s += " (" + m.Better + " is better)"
	}
	if m.Note != "" {
		s += " " + m.Note
	}
	return s
}

// passResult is one pass (untraced or traced) of one workload.
type passResult struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"ops_attempted"`
	Failed    int                 `json:"ops_failed"`
	Metrics   map[string]metric   `json:"metrics"`
	Spans     map[string]selfStat `json:"spans,omitempty"`
	Errors    []string            `json:"errors,omitempty"`
}

func (p *passResult) fail(format string, args ...any) {
	p.Correct = false
	p.Errors = append(p.Errors, fmt.Sprintf(format, args...))
}

// print lists every metric of the pass by name with its unit.
func (p *passResult) print(w io.Writer) {
	kind := "untraced pass, end-to-end"
	if p.Traced {
		kind = "traced pass, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s): ops_attempted=%d ops_failed=%d correct=%v\n",
		p.Workload, kind, p.Attempted, p.Failed, p.Correct)
	names := make([]string, 0, len(p.Metrics))
	for name := range p.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %s\n", name, p.Metrics[name])
	}
	names = names[:0]
	for name := range p.Spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := p.Spans[name]
		fmt.Fprintf(w, "  span %-27s count %-7d total %10.3f ms  self %10.3f ms\n", name, st.Count, st.TotalMS, st.SelfMS)
	}
	for _, e := range p.Errors {
		fmt.Fprintf(w, "  ERROR: %s\n", e)
	}
}

// report is the -out file: every pass of a full set, with the environment it
// ran in. -compare reads two of them.
type report struct {
	// Claim is the gain this commit claims on the benchmark. The issue that
	// defines the benchmark claims none.
	Claim  *string       `json:"claim"`
	Env    environment   `json:"env"`
	BuildS float64       `json:"build_s"`
	Passes []*passResult `json:"passes"`
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// pass finds one workload's untraced or traced pass.
func (r *report) pass(workload string, traced bool) *passResult {
	for _, p := range r.Passes {
		if p.Workload == workload && p.Traced == traced {
			return p
		}
	}
	return nil
}

// contract is BENCHMARK.json: the metric lists and bounds the driver holds
// the benchmark to. The harness reads its own contract so that the names it
// must print and the bounds -compare applies are written down once.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (*contract, error) {
	raw, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// resultLine renders a pass as the one-line JSON object the driver reads
// from the end of standard output: exactly the contract's end-to-end metrics
// for an untraced pass and its per-layer metrics for a traced one.
func (c *contract) resultLine(p *passResult) (string, error) {
	want := c.EndToEnd
	if p.Traced {
		want = c.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.Correct, p.Attempted, p.Failed, map[string]value{}}
	for _, m := range want {
		got, ok := p.Metrics[m.Name]
		if !ok || got.Value == nil {
			return "", fmt.Errorf("%s: metric %q of BENCHMARK.json was not measured", p.Workload, m.Name)
		}
		out.Metrics[m.Name] = value{*got.Value, m.Unit}
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
