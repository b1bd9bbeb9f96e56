package metrics

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Registration is idempotent: the same name returns the same instrument, so
// two subsystems naming the same metric share one counter — the mechanism
// behind rt.Stats reading the transport's counters.

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("idx_test_total", "a")
	b := r.Counter("idx_test_total", "other help is ignored")
	if a != b {
		t.Fatal("re-registering idx_test_total returned a different counter")
	}
	a.Add(3)
	if got := b.Value(); got != 3 {
		t.Errorf("shared counter reads %d through second handle, want 3", got)
	}

	g1 := r.Gauge("idx_test_gauge", "g")
	g2 := r.Gauge("idx_test_gauge", "g")
	if g1 != g2 {
		t.Fatal("re-registering a gauge returned a different instrument")
	}

	h1 := r.Histogram("idx_test_ns", "h")
	h2 := r.Histogram("idx_test_ns", "h")
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different instrument")
	}

	v := r.CounterVec("idx_test_vec_total", "v", "stage")
	if v.With("issue") != v.With("issue") {
		t.Fatal("resolving the same label value returned a different counter")
	}
	if v.With("issue") == v.With("execute") {
		t.Fatal("distinct label values resolved to the same counter")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"counter-as-gauge", func(r *Registry) {
			r.Counter("m_total", "")
			r.Gauge("m_total", "")
		}},
		{"gauge-as-histogram", func(r *Registry) {
			r.Gauge("m", "")
			r.Histogram("m", "")
		}},
		{"label-count-changed", func(r *Registry) {
			r.CounterVec("m_total", "", "stage")
			r.Counter("m_total", "")
		}},
		{"label-key-changed", func(r *Registry) {
			r.CounterVec("m_total", "", "stage")
			r.CounterVec("m_total", "", "node")
		}},
		{"invalid-name", func(r *Registry) { r.Counter("bad name", "") }},
		{"invalid-leading-digit", func(r *Registry) { r.Counter("0bad", "") }},
		{"invalid-label", func(r *Registry) { r.CounterVec("m_total", "", "bad-label") }},
		{"label-value-count", func(r *Registry) {
			r.CounterVec("m_total", "", "stage").With("a", "b")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("schema violation did not panic")
				}
			}()
			c.f(NewRegistry())
		})
	}
}

func TestCounterIsMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	c.Inc()
	c.Add(4)
	c.Add(-100) // negative deltas are ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// TestBucketMathRoundTrip sweeps values across every octave and checks the
// index/bound pair: a value lands in a bucket whose upper bound is the
// smallest bound at or above it, bounds are strictly increasing, and the
// quantization error is within the documented 1/2^histSubBits.
func TestBucketMathRoundTrip(t *testing.T) {
	var vals []int64
	for i := int64(0); i < 64; i++ {
		vals = append(vals, i)
	}
	for shift := uint(3); shift < 63; shift++ {
		base := int64(1) << shift
		vals = append(vals, base-1, base, base+1, base+base/2, base+base/3)
	}
	vals = append(vals, math.MaxInt64)
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of [0,%d)", v, i, histBuckets)
		}
		upper := bucketUpper(i)
		if upper < v {
			t.Errorf("bucketUpper(bucketIndex(%d)) = %d < value", v, upper)
		}
		if i > 0 {
			lower := bucketUpper(i - 1)
			if lower >= v {
				t.Errorf("value %d at index %d but previous bound %d already covers it", v, i, lower)
			}
			// Relative quantization error: bucket width over value.
			if v >= histSubCount {
				relErr := float64(upper-lower) / float64(v)
				if relErr > 1.0/float64(histSubCount)+1e-9 {
					t.Errorf("value %d: bucket [%d,%d] rel error %.4f > %.4f",
						v, lower+1, upper, relErr, 1.0/float64(histSubCount))
				}
			}
		}
	}
	// Bounds are strictly increasing across the whole range.
	for i := 1; i < histBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not strictly increasing at %d: %d <= %d",
				i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "")
	// 1..1000: quantiles are known, quantization error bounded at 12.5%.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	h.Observe(-5) // clamps to 0
	if got := h.Count(); got != 1001 {
		t.Fatalf("count = %d, want 1001", got)
	}
	if got := h.Sum(); got != 500500 {
		t.Fatalf("sum = %d, want 500500", got)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(c.q)
		if got < c.want || float64(got) > float64(c.want)*1.125+1 {
			t.Errorf("q%.2f = %d, want within [%d, %.0f]", c.q, got, c.want, float64(c.want)*1.125+1)
		}
	}
	var empty *Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %d, want 0", got)
	}
}

func TestSnapshotInvariants(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "counts")
	h := r.Histogram("b_ns", "lat")
	c.Add(2)
	for _, v := range []int64{1, 10, 100, 1000, 1000} {
		h.Observe(v)
	}
	snap := r.Gather()
	if len(snap.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(snap.Families))
	}
	// Registration order is preserved.
	if snap.Families[0].Name != "a_total" || snap.Families[1].Name != "b_ns" {
		t.Errorf("family order = %s, %s", snap.Families[0].Name, snap.Families[1].Name)
	}
	hs := snap.Families[1].Series[0]
	if hs.Count != 5 || hs.Sum != 2111 {
		t.Errorf("histogram snapshot count=%d sum=%d, want 5, 2111", hs.Count, hs.Sum)
	}
	// Buckets are cumulative and the last equals the count.
	for i := 1; i < len(hs.Buckets); i++ {
		if hs.Buckets[i].Count < hs.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d", i)
		}
		if hs.Buckets[i].Le <= hs.Buckets[i-1].Le {
			t.Errorf("bucket bounds not increasing at %d", i)
		}
	}
	if last := hs.Buckets[len(hs.Buckets)-1].Count; last != hs.Count {
		t.Errorf("last cumulative bucket %d != count %d", last, hs.Count)
	}
}

func TestScalarsFlattening(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.CounterVec("v_total", "", "stage").With("issue").Add(3)
	h := r.Histogram("h_ns", "")
	h.Observe(100)
	scalars := r.Gather().Scalars()
	byName := map[string]float64{}
	for _, s := range scalars {
		byName[s.Name] = s.Value
	}
	if byName["c_total"] != 7 {
		t.Errorf("c_total = %g, want 7", byName["c_total"])
	}
	if byName[`v_total{stage="issue"}`] != 3 {
		t.Errorf(`v_total{stage="issue"} = %g, want 3`, byName[`v_total{stage="issue"}`])
	}
	if byName["h_ns_count"] != 1 || byName["h_ns_sum"] != 100 {
		t.Errorf("h_ns count/sum = %g/%g, want 1/100", byName["h_ns_count"], byName["h_ns_sum"])
	}
	for _, q := range []string{"h_ns_p50", "h_ns_p95", "h_ns_p99"} {
		if _, ok := byName[q]; !ok {
			t.Errorf("scalars missing %s", q)
		}
	}
}

func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ns", "")
	cv := r.CounterVec("cv_total", "", "k")
	gv := r.GaugeVec("gv", "", "k")
	hv := r.HistogramVec("hv_ns", "", "k")
	if c != nil || g != nil || h != nil || cv != nil || gv != nil || hv != nil {
		t.Fatal("nil registry handed out a non-nil instrument")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(10)
	cv.With("x").Inc()
	gv.With("x").Set(2)
	hv.With("x").Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated state")
	}
	snap := r.Gather()
	if len(snap.Families) != 0 {
		t.Fatal("nil registry gathered families")
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry names = %v, want nil", names)
	}
	if !r.Epoch().IsZero() {
		t.Fatal("nil registry has a non-zero epoch")
	}
}

func TestNamesAreSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	r.Counter("a_total", "")
	r.Gauge("m", "")
	names := r.Names()
	want := []string{"a_total", "m", "z_total"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestPipelineRegistersCanonicalSchema(t *testing.T) {
	if NewPipeline(nil) != nil {
		t.Fatal("NewPipeline(nil) != nil: disabled state broken")
	}
	r := NewRegistry()
	p := NewPipeline(r)
	// Every stage label is pre-resolved and distinct.
	stages := []*Histogram{p.LatIssue, p.LatLogical, p.LatDistribute, p.LatPhysical, p.LatExecute}
	seen := map[*Histogram]bool{}
	for i, h := range stages {
		if h == nil {
			t.Fatalf("stage %s not resolved", PipelineStages[i])
		}
		if seen[h] {
			t.Fatalf("stage %s shares a histogram with another stage", PipelineStages[i])
		}
		seen[h] = true
	}
	// Registering the pipeline twice is harmless and shares instruments.
	p2 := NewPipeline(r)
	if p.LaunchCalls != p2.LaunchCalls || p.LatExecute != p2.LatExecute {
		t.Fatal("second NewPipeline on the same registry returned fresh instruments")
	}
	// Naming conventions: counters end in _total, histograms in _ns.
	for _, f := range r.Gather().Families {
		switch f.Type {
		case "counter":
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %s does not end in _total", f.Name)
			}
		case "histogram":
			if !strings.HasSuffix(f.Name, "_ns") {
				t.Errorf("histogram %s does not end in _ns", f.Name)
			}
		}
	}
}

// TestPipelineInstrumentsOwnCacheLines: the runtime's counters and gauges
// each sit on a cache line of their own, so the issuer and the run queues'
// drainers, updating different instruments for every point, do not contend
// for one line.
func TestPipelineInstrumentsOwnCacheLines(t *testing.T) {
	p := reflect.ValueOf(NewPipeline(NewRegistry())).Elem()
	lines := map[uintptr]string{}
	for i := 0; i < p.NumField(); i++ {
		f := p.Field(i)
		if f.Type() != reflect.TypeOf((*Counter)(nil)) && f.Type() != reflect.TypeOf((*Gauge)(nil)) {
			continue
		}
		name, addr := p.Type().Field(i).Name, f.Pointer()
		if addr%cacheLine != 0 {
			t.Errorf("%s starts %d bytes into a cache line", name, addr%cacheLine)
		}
		if other, shared := lines[addr/cacheLine]; shared {
			t.Errorf("%s shares a cache line with %s", name, other)
		}
		lines[addr/cacheLine] = name
	}
	if len(lines) < 20 {
		t.Fatalf("only %d counters and gauges checked", len(lines))
	}
}

// A BENCH file is one snapshot or an append-only trajectory of them; the
// newest trajectory entry is the baseline.
func TestReadBenchFileTrajectory(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one, err := ReadBenchFile(write("one.json", `{"name":"wal","values":[{"name":"v","value":1}]}`))
	if err != nil || one.Name != "wal" || one.Values[0].Value != 1 {
		t.Fatalf("single snapshot = %+v, %v", one, err)
	}
	last, err := ReadBenchFile(write("traj.json", `
[{"name":"wal","values":[{"name":"v","value":1}]},
 {"name":"wal","values":[{"name":"v","value":2}]}]`))
	if err != nil || len(last.Values) != 1 || last.Values[0].Value != 2 {
		t.Fatalf("trajectory baseline = %+v, %v; want its newest entry", last, err)
	}
	if _, err := ReadBenchFile(write("empty.json", `[]`)); err == nil {
		t.Fatal("an empty trajectory was accepted")
	}
}

// ParseGoBench names each value by the four rules, reduces -count repeats
// to their median, and ReadBenchFile takes any non-JSON file for go test
// output.
func TestParseGoBenchNaming(t *testing.T) {
	out := `goos: linux
pkg: indexlaunch/internal/sched
BenchmarkSched/fifo/seed1-2   	       1	   2903007 ns/op	      1140 jobs/ktick	       742.0 p99_wait_ticks
BenchmarkSched/fifo/seed1-2   	       1	   2000000 ns/op	      1140 jobs/ktick	       742.0 p99_wait_ticks
BenchmarkSched/fifo/seed1-2   	       1	   9000000 ns/op	      1140 jobs/ktick	       742.0 p99_wait_ticks
BenchmarkEncodeFrame          	  200	       213.6 ns/op	     353 B/op	       1 allocs/op
BenchmarkWal/commit/2w-16     	  800	     23591 ns/op	         0.8000 fsyncs/op
BenchmarkWal/commit/2w-16     	  800	     23001 ns/op	         0.8450 fsyncs/op
BenchmarkSched/fifo/seed1-2   --- FAIL: not a result line
PASS
ok  	indexlaunch/internal/sched	0.034s
`
	path := filepath.Join(t.TempDir(), "sched.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	var names []string
	for _, v := range snap.Values {
		got[v.Name] = v.Value
		names = append(names, v.Name)
		if v.Better != "" {
			t.Errorf("%s carries orientation %q; go test output has none", v.Name, v.Better)
		}
	}
	want := map[string]float64{
		"sched/fifo/seed1/ns_per_op":      2903007, // median of three
		"sched/fifo/seed1/jobs_per_ktick": 1140,
		"sched/fifo/seed1/p99_wait_ticks": 742,
		"encodeframe/ns_per_op":           213.6,
		"encodeframe/B_per_op":            353,
		"encodeframe/allocs_per_op":       1,
		"wal/commit/2w/ns_per_op":         23296, // median of two: their mean
		"wal/commit/2w/fsyncs_per_op":     0.8225,
	}
	if len(got) != len(want) {
		t.Errorf("values %v, want %d", names, len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, w)
		}
	}
	if _, err := ParseGoBench("empty", []byte("PASS\nok\n")); err == nil {
		t.Error("output without a benchmark line was accepted")
	}
}

// A diff takes each value's orientation from the baseline, compares a
// baseline value at the precision go test printed, and reports every
// baseline value the run lacks.
func TestBenchDiffBaselineOrientationAndMissing(t *testing.T) {
	base := BenchSnapshot{Name: "base", Values: []BenchValue{
		{Name: "x/jobs_per_ktick", Value: 1139.6, Better: "higher"},
		{Name: "x/ns_per_op", Value: 100, Better: "lower"},
		{Name: "x/info", Value: 5},
		{Name: "x/renamed", Value: 1, Better: "lower"},
		{Name: "x/gone", Value: 1, Better: "lower"},
	}}
	run, err := ParseGoBench("run", []byte(
		"BenchmarkX-2  1  120.0 ns/op  1140 jobs/ktick  9.000 info  7.000 extra\n"))
	if err != nil {
		t.Fatal(err)
	}
	deltas, missing := BenchDiff(base, run, 0)
	if want := []string{"x/gone", "x/renamed"}; !reflect.DeepEqual(missing, want) {
		t.Errorf("missing = %v, want %v", missing, want)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas %+v: want the 3 values both sides hold", deltas)
	}
	if d := byName["x/jobs_per_ktick"]; d.Rel != 0 || d.Regression || d.Improvement {
		t.Errorf("1139.6 printed as 1140 moved: %+v", d)
	}
	if d := byName["x/ns_per_op"]; !d.Regression {
		t.Errorf("a lower-is-better value that rose 20%% is not a regression: %+v", d)
	}
	if d := byName["x/info"]; d.Regression || d.Improvement {
		t.Errorf("a value without orientation was flagged: %+v", d)
	}
	if out := RenderBenchDiff(base, run, deltas, missing, true); !strings.Contains(out, "MISSING    x/gone") {
		t.Errorf("render does not name the missing values:\n%s", out)
	}
	// Higher is better, from the baseline: a rise is an improvement.
	deltas, _ = BenchDiff(BenchSnapshot{Values: []BenchValue{{Name: "x/ns_per_op", Value: 100, Better: "higher"}}}, run, 0)
	if len(deltas) != 1 || !deltas[0].Improvement {
		t.Errorf("orientation not taken from the baseline: %+v", deltas)
	}
}
