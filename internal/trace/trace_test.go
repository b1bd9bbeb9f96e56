package trace

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
)

// feed buffers a minimal three-layer trace into tr: an admit span, an
// execute span under a launch child, and a hop mark — enough structure for
// tree assertions without a live scheduler.
func feed(t *testing.T, tr *Tracer, tc obs.TraceRef, jobID uint64) {
	t.Helper()
	tr.Begin(tc, jobID, "a", 0)
	tr.Record(obs.Event{Stage: obs.StageAdmit, Tag: "tenant:a", Start: 1, Dur: 2,
		Trace: tc.Trace, Span: tc.Child(2).Span, Parent: tc.Span})
	ltc := tc.Child(0x104)
	tr.Record(obs.Event{Stage: obs.StageIssue, Task: "spin", Tag: "spin", Start: 3, Dur: 1,
		Trace: tc.Trace, Span: ltc.Span, Parent: ltc.Parent})
	tr.Record(obs.Event{Stage: obs.StageExecute, Task: "spin", Tag: "spin", Point: domain.Pt1(0),
		Start: 4, Dur: 5, Trace: tc.Trace, Span: ltc.Child(16).Span, Parent: ltc.Span})
}

func mustNew(t *testing.T, cfg Config) *Tracer {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDecisionTable(t *testing.T) {
	slow := func() int64 { return 100 }
	cases := []struct {
		name string
		o    Outcome
		slow func() int64
		head float64
		want string
	}{
		{"failed beats all", Outcome{Failed: true, Preempted: true, LatencyNS: 500}, slow, 1, "failed"},
		{"preempted", Outcome{Preempted: true, Retried: true}, slow, 0, "preempted"},
		{"retried", Outcome{Retried: true}, slow, 0, "retried"},
		{"slow", Outcome{LatencyNS: 100}, slow, 0, "slow"},
		{"below threshold drops", Outcome{LatencyNS: 99}, slow, 0, ""},
		{"zero threshold disables slow", Outcome{LatencyNS: 1 << 40}, func() int64 { return 0 }, 0, ""},
		{"nil threshold disables slow", Outcome{LatencyNS: 1 << 40}, nil, 0, ""},
		{"head rate 1 keeps everything", Outcome{}, nil, 1, "head"},
		{"healthy fast drop", Outcome{LatencyNS: 1}, slow, 0, ""},
	}
	for _, c := range cases {
		if got := decide(0x1234, c.o, c.slow, c.head); got != c.want {
			t.Errorf("%s: decide = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestHeadSamplingDeterministicAndProportional(t *testing.T) {
	kept := 0
	const n = 10000
	for i := uint64(1); i <= n; i++ {
		tc := obs.NewTraceRef(i)
		a := decide(tc.Trace, Outcome{}, nil, 0.1)
		b := decide(tc.Trace, Outcome{}, nil, 0.1)
		if a != b {
			t.Fatalf("head sampling not deterministic for trace %#x", tc.Trace)
		}
		if a == "head" {
			kept++
		}
	}
	if kept < n/10-300 || kept > n/10+300 {
		t.Fatalf("head rate 0.1 kept %d of %d", kept, n)
	}
}

func TestFinishRetainsAndGets(t *testing.T) {
	tr := mustNew(t, Config{Registry: metrics.NewRegistry()})
	tc := obs.NewTraceRef(1)
	feed(t, tr, tc, 7)
	retained, why := tr.Finish(tc, 50, Outcome{Failed: true, Err: "boom"})
	if !retained || why != "failed" {
		t.Fatalf("Finish = (%v, %q), want (true, failed)", retained, why)
	}
	// Get by decimal job ID and by hex trace ID.
	byJob, ok := tr.Get("7")
	if !ok {
		t.Fatal("Get(jobID) missed")
	}
	byTrace, ok := tr.Get(strconv.FormatUint(tc.Trace, 16))
	if !ok || byTrace != byJob {
		t.Fatal("Get(hex trace ID) missed or returned a different trace")
	}
	if byJob.Why != "failed" || byJob.Err != "boom" || byJob.Tenant != "a" {
		t.Fatalf("retained trace fields wrong: %+v", byJob)
	}
	// 3 recorded + 1 synthesized root.
	if len(byJob.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(byJob.Spans))
	}
	root := byJob.Spans[0]
	if root.Stage != obs.StageJob || root.Span != tc.Span || root.Dur != 50 {
		t.Fatalf("first span is not the job root: %+v", root)
	}
	// A second Finish for the same trace is a no-op.
	if re, _ := tr.Finish(tc, 60, Outcome{Failed: true}); re {
		t.Fatal("double Finish retained twice")
	}
	// Dropped traces free their buffers and are not queryable.
	tc2 := obs.NewTraceRef(2)
	feed(t, tr, tc2, 8)
	if re, _ := tr.Finish(tc2, 50, Outcome{}); re {
		t.Fatal("healthy fast trace retained with no policy")
	}
	if _, ok := tr.Get("8"); ok {
		t.Fatal("dropped trace still queryable")
	}
}

func TestRetainedRingEvicts(t *testing.T) {
	tr := mustNew(t, Config{MaxRetained: 3})
	for i := uint64(1); i <= 5; i++ {
		tc := obs.NewTraceRef(i)
		tr.Begin(tc, i, "a", 0)
		tr.Finish(tc, 10, Outcome{Failed: true})
	}
	if st := tr.StatusInfo(); st.Retained != 3 {
		t.Fatalf("retained %d, want 3", st.Retained)
	}
	if _, ok := tr.Get("1"); ok {
		t.Fatal("evicted trace still queryable")
	}
	if _, ok := tr.Get("5"); !ok {
		t.Fatal("newest trace missing")
	}
	recent := tr.Recent(10)
	if len(recent) != 3 || recent[0].JobID != 5 || recent[2].JobID != 3 {
		t.Fatalf("Recent order wrong: %+v", recent)
	}
}

func TestOrphanAndTruncation(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := mustNew(t, Config{MaxSpans: 2, Registry: reg})
	// Orphan: no Begin for this trace.
	tr.Record(obs.Event{Trace: 0xbeef, Span: 1})
	tc := obs.NewTraceRef(3)
	tr.Begin(tc, 3, "a", 0)
	for i := uint64(1); i <= 5; i++ {
		tr.Record(obs.Event{Trace: tc.Trace, Span: tc.Child(i).Span, Parent: tc.Span})
	}
	retained, _ := tr.Finish(tc, 10, Outcome{Failed: true})
	if !retained {
		t.Fatal("not retained")
	}
	got, _ := tr.Get("3")
	if got.Truncated != 3 {
		t.Fatalf("Truncated = %d, want 3", got.Truncated)
	}
	if len(got.Spans) != 3 { // 2 kept + root
		t.Fatalf("spans = %d, want 3", len(got.Spans))
	}
}

// launchRecord builds a finished record of points points under ltc, whose
// point 1 was replayed (no physical span): 2*points-1 spans.
func launchRecord(ltc obs.TraceRef, points int) *obs.LaunchSpans {
	ls := obs.NewLaunchSpans(ltc, 100, "t", "l", domain.Range1(0, int64(points-1)))
	for i := range points {
		row := &ls.Rows[i]
		if i != 1 {
			row.PhysNode, row.PhysStart, row.PhysDur = 0, int64(10*i+10), 1
		}
		row.ExecNode, row.ExecStart, row.ExecDur = 1, int64(10*i+12), 5
	}
	return ls
}

// A MaxSpans cap falling inside a launch record keeps the record's first
// spans and counts exactly the dropped ones, in Truncated and in
// trace_truncated_spans_total.
func TestLaunchRecordTruncationCountsSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := mustNew(t, Config{MaxSpans: 5, Registry: reg})
	tc := obs.NewTraceRef(5)
	ltc := tc.Child(1)
	tr.Begin(tc, 5, "a", 0)
	tr.Record(obs.Event{Stage: obs.StageIssue, Start: 1, Trace: ltc.Trace, Span: ltc.Span, Parent: ltc.Parent})
	tr.RecordLaunch(launchRecord(ltc, 4))         // 7 spans, 4 fit
	tr.RecordLaunch(launchRecord(tc.Child(2), 3)) // 5 spans, none fit
	tr.Record(obs.Event{Stage: obs.StageFence, Trace: tc.Trace, Span: tc.Child(3).Span, Parent: tc.Span})
	if retained, _ := tr.Finish(tc, 100, Outcome{Failed: true}); !retained {
		t.Fatal("not retained")
	}
	if sums := tr.Recent(1); len(sums) != 1 || sums[0].Spans != 6 {
		t.Fatalf("summary = %+v, want 6 spans (5 kept + root)", sums)
	}
	got, _ := tr.Get("5")
	const dropped = 3 + 5 + 1
	if got.Truncated != dropped {
		t.Fatalf("Truncated = %d, want %d", got.Truncated, dropped)
	}
	var b strings.Builder
	if err := metrics.WriteProm(&b, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("trace_truncated_spans_total %d", dropped); !strings.Contains(b.String(), want) {
		t.Fatalf("metrics lack %q:\n%s", want, b.String())
	}
	// Kept, in start order: the root, the issue span, then the record's
	// first four spans — point 0's physical and execute spans, point 1's
	// execute span, point 2's physical span.
	var kept []string
	for _, ev := range got.Spans {
		kept = append(kept, fmt.Sprintf("%s%v", ev.Stage, ev.Point))
	}
	if want := "job<> issue<> physical<0> execute<0> execute<1> physical<2>"; strings.Join(kept, " ") != want {
		t.Fatalf("kept spans = %q, want %q", strings.Join(kept, " "), want)
	}
	ptc := ltc.Point(domain.Pt1(0)).Child(obs.ChildExecute)
	if ex := got.Spans[3]; ex.ID != 100 || ex.Node != 1 || ex.Span != ptc.Span || ex.Parent != ptc.Parent {
		t.Fatalf("point 0's execute span = %+v, want ID 100 on node 1 under %+v", ex, ptc)
	}
}

func TestAbortDiscards(t *testing.T) {
	tr := mustNew(t, Config{})
	tc := obs.NewTraceRef(4)
	tr.Begin(tc, 4, "a", 0)
	tr.Abort(tc)
	if re, _ := tr.Finish(tc, 10, Outcome{Failed: true}); re {
		t.Fatal("aborted trace still finished")
	}
	if st := tr.StatusInfo(); st.Inflight != 0 {
		t.Fatalf("inflight = %d after abort", st.Inflight)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tc := obs.NewTraceRef(1)
	tr.Begin(tc, 1, "a", 0)
	tr.Record(obs.Event{Trace: tc.Trace})
	tr.Abort(tc)
	tr.SetSlowThreshold(func() int64 { return 1 })
	if re, why := tr.Finish(tc, 1, Outcome{Failed: true}); re || why != "" {
		t.Fatal("nil tracer retained")
	}
	if tr.Sink() != nil {
		t.Fatal("nil tracer returned a sink")
	}
	if _, ok := tr.Get("1"); ok {
		t.Fatal("nil tracer Get hit")
	}
	if got := tr.Recent(5); got != nil {
		t.Fatal("nil tracer Recent non-nil")
	}
	if st := tr.StatusInfo(); st.Inflight != 0 || st.Retained != 0 {
		t.Fatal("nil tracer status non-zero")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkFeedsTracerThroughRecorder(t *testing.T) {
	tr := mustNew(t, Config{})
	rec := obs.NewRecorder("test", 2, 64)
	rec.SetSink(tr.Sink())
	tc := obs.NewTraceRef(9)
	tr.Begin(tc, 9, "b", 0)
	rec.SpanTC(tc.Child(2), 0, obs.StageAdmit, "", "tenant:b", domain.Pt1(9), 0, 3)
	rec.Span(0, obs.StageFence, "", "fence", domain.Point{}, 4, 5) // untraced
	retained, _ := tr.Finish(tc, 10, Outcome{Failed: true})
	if !retained {
		t.Fatal("not retained")
	}
	got, _ := tr.Get("9")
	if len(got.Spans) != 2 { // admit + root, the untraced fence filtered at the tee
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
}
