// Package metrics is the runtime's live-metrics layer: a lock-light
// registry of atomic counters, gauges and log-bucketed (HDR-style) latency
// histograms, paired with internal/obs the way metrics pair with traces in
// Legion's runtime profiler or HPX's performance-counter interface — obs
// answers "where did this run's time go, span by span", metrics answer
// "what are the rates and distributions right now, cheaply, forever".
//
// The overhead contract matches obs: a nil *Registry is the disabled
// state. Every instrument obtained from a nil registry is nil, and every
// method of a nil instrument is a nil-receiver no-op costing one branch and
// zero allocations — enforced by test and benchmark (bench_test.go) — so
// instrumented code keeps its hooks inline on the hot path.
//
// Registration is locked; recording is lock-free. Counter.Add, Gauge.Set
// and Histogram.Observe are single atomic operations on pre-resolved
// instruments; labeled families (CounterVec etc.) resolve a label value to
// an instrument once, at setup time, and hot paths hold the resolved
// pointer. Snapshots (Gather) read the same atomics, so a snapshot taken
// mid-run is never torn: every value it contains was current at some moment
// during the call, and successive snapshots are monotonic for counters and
// histograms.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// cacheLine is the padded size of a Counter or Gauge: one instrument to a
// line, so goroutines updating different instruments do not contend for it.
const cacheLine = 64

// Counter is a monotonically non-decreasing atomic counter. A nil *Counter
// is the disabled instrument: Add and Inc are one-branch no-ops.
type Counter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is the disabled
// instrument.
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Type is the metric family type.
type Type uint8

const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

// String returns the Prometheus TYPE keyword.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (label values → instrument) entry of a family.
type series struct {
	labelVals []string
	c         *Counter
	g         *Gauge
	h         *Histogram
	// fn, when set on a gauge series, is evaluated at Gather time instead
	// of reading g — the pull-style gauge GaugeFunc registers.
	fn func() int64
}

// family is one named metric with a fixed type and label-key schema.
type family struct {
	name      string
	help      string
	typ       Type
	labelKeys []string

	mu     sync.Mutex
	series map[string]*series
	order  []*series
}

// get returns the series for the given label values, creating it on first
// use. Label-value count mismatches panic: they are programmer errors, like
// a malformed format string.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labelKeys) {
		panic(fmt.Sprintf("metrics: %s expects %d label value(s), got %d",
			f.name, len(f.labelKeys), len(vals)))
	}
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labelVals: append([]string(nil), vals...)}
		switch f.typ {
		case TypeCounter:
			s.c = &Counter{}
		case TypeGauge:
			s.g = &Gauge{}
		case TypeHistogram:
			s.h = &Histogram{}
		}
		f.series[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Registry holds metric families in registration order. A nil *Registry is
// the disabled metrics layer: every constructor returns a nil instrument
// (or nil Vec) whose methods are one-branch no-ops.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
	epoch time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}, epoch: time.Now()}
}

// Epoch returns the registry's creation time (the zero time on nil).
func (r *Registry) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// family registers (or re-fetches) a family. Registration is idempotent:
// the same name returns the same family, so two subsystems naming the same
// metric share one instrument — which is exactly how rt.Stats reads the
// transport's counters without dual bookkeeping. A name re-registered with
// a different type or label schema panics.
func (r *Registry) family(name, help string, typ Type, labelKeys []string) *family {
	mustValidName(name)
	for _, k := range labelKeys {
		mustValidLabel(k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ,
			labelKeys: append([]string(nil), labelKeys...), series: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, typ, f.typ))
	}
	if len(f.labelKeys) != len(labelKeys) {
		panic(fmt.Sprintf("metrics: %s re-registered with %d label key(s), was %d",
			name, len(labelKeys), len(f.labelKeys)))
	}
	for i, k := range labelKeys {
		if f.labelKeys[i] != k {
			panic(fmt.Sprintf("metrics: %s re-registered with label %q, was %q",
				name, k, f.labelKeys[i]))
		}
	}
	return f
}

// Counter registers (or re-fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeCounter, nil).get(nil).c
}

// Gauge registers (or re-fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeGauge, nil).get(nil).g
}

// GaugeFunc registers a pull-style gauge: fn is evaluated at every Gather
// instead of the instrument being pushed to. It suits values some other
// subsystem already tracks (e.g. obs ring-overflow drops) where mirroring
// into a pushed gauge would mean polling. Re-registering the same name
// replaces the function. fn must be safe for concurrent calls. No-op on a
// nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	f := r.family(name, help, TypeGauge, nil)
	s := f.get(nil)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or re-fetches) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeHistogram, nil).get(nil).h
}

// CounterVec is a counter family with one or more label keys. A nil Vec is
// disabled: With returns a nil instrument.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelKeys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, TypeCounter, labelKeys)}
}

// With resolves one label combination to its counter. Resolution takes the
// family lock; hot paths should resolve once and keep the pointer.
func (v *CounterVec) With(labelVals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals).c
}

// GaugeVec is a gauge family with label keys.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.family(name, help, TypeGauge, labelKeys)}
}

// With resolves one label combination to its gauge.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals).g
}

// HistogramVec is a histogram family with label keys.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.family(name, help, TypeHistogram, labelKeys)}
}

// With resolves one label combination to its histogram.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(labelVals).h
}

// Label is one label pair of a snapshot series.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SeriesSnapshot is one series of a family at snapshot time. Counter and
// gauge series carry Value; histogram series carry Count, Sum and
// cumulative Buckets.
type SeriesSnapshot struct {
	Labels  []Label  `json:"labels,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family at snapshot time.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is an immutable copy of a registry's state: the input to every
// exposition format (Prometheus text, JSON, terminal watch, bench deltas).
type Snapshot struct {
	TakenUnixNS int64            `json:"taken_unix_ns"`
	Families    []FamilySnapshot `json:"families"`
}

// Gather snapshots the registry in registration order. On a nil registry it
// returns an empty snapshot. Counters and histogram buckets are monotonic
// across successive snapshots; a snapshot concurrent with recording derives
// each histogram's count from its buckets, so the exposed `+Inf` bucket
// always equals the exposed count.
func (r *Registry) Gather() Snapshot {
	snap := Snapshot{TakenUnixNS: time.Now().UnixNano()}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		order := append([]*series(nil), f.order...)
		fns := make([]func() int64, len(order))
		for i, s := range order {
			fns[i] = s.fn
		}
		f.mu.Unlock()
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ.String()}
		for si, s := range order {
			ss := SeriesSnapshot{}
			for i, k := range f.labelKeys {
				ss.Labels = append(ss.Labels, Label{Key: k, Value: s.labelVals[i]})
			}
			switch f.typ {
			case TypeCounter:
				ss.Value = s.c.Value()
			case TypeGauge:
				if fn := fns[si]; fn != nil {
					ss.Value = fn()
				} else {
					ss.Value = s.g.Value()
				}
			case TypeHistogram:
				ss.Buckets, ss.Count, ss.Sum = s.h.snapshot()
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Scalar is one flattened snapshot value, for terminal rendering and bench
// snapshots: "name{label="v"}" plus derived "_count"/"_sum"/"_p50"/"_p95"/
// "_p99" entries for histograms.
type Scalar struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Scalars flattens a snapshot into named scalar values, in family order.
func (s Snapshot) Scalars() []Scalar {
	var out []Scalar
	for _, f := range s.Families {
		for _, ss := range f.Series {
			base := f.Name + labelSuffix(ss.Labels)
			if f.Type != TypeHistogram.String() {
				out = append(out, Scalar{Name: base, Value: float64(ss.Value)})
				continue
			}
			out = append(out,
				Scalar{Name: base + "_count", Value: float64(ss.Count)},
				Scalar{Name: base + "_sum", Value: float64(ss.Sum)},
				Scalar{Name: base + "_p50", Value: float64(BucketQuantile(ss.Buckets, ss.Count, 0.50))},
				Scalar{Name: base + "_p95", Value: float64(BucketQuantile(ss.Buckets, ss.Count, 0.95))},
				Scalar{Name: base + "_p99", Value: float64(BucketQuantile(ss.Buckets, ss.Count, 0.99))},
			)
		}
	}
	return out
}

func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Names returns the sorted metric family names.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.order))
	for _, f := range r.order {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// mustValidName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

// mustValidLabel enforces the Prometheus label-name charset
// [a-zA-Z_][a-zA-Z0-9_]*.
func mustValidLabel(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("metrics: invalid label name %q", name))
	}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
