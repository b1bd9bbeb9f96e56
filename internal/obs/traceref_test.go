package obs

import (
	"bytes"
	"testing"

	"indexlaunch/internal/domain"
)

// TraceRef is the span-context currency every layer trades in, so its
// derivation must be deterministic, collision-resistant across the child
// keys the layers reserve, and free on the disabled path.

func TestNewTraceRefDeterministic(t *testing.T) {
	a, b := NewTraceRef(42), NewTraceRef(42)
	if a != b {
		t.Fatalf("NewTraceRef(42) not deterministic: %+v vs %+v", a, b)
	}
	if !a.Valid() {
		t.Fatalf("NewTraceRef(42) invalid: %+v", a)
	}
	if a.Parent != 0 {
		t.Fatalf("root has parent %#x, want 0", a.Parent)
	}
	if c := NewTraceRef(43); c.Trace == a.Trace {
		t.Fatalf("seeds 42 and 43 collide on trace ID %#x", a.Trace)
	}
	// Seed 0 must still produce a valid (non-zero) context.
	if z := NewTraceRef(0); !z.Valid() {
		t.Fatalf("NewTraceRef(0) invalid: %+v", z)
	}
}

func TestChildDerivation(t *testing.T) {
	root := NewTraceRef(7)
	seen := map[uint64]uint64{}
	for n := uint64(0); n < 4096; n++ {
		c := root.Child(n)
		if c.Trace != root.Trace {
			t.Fatalf("child %d changed trace ID", n)
		}
		if c.Parent != root.Span {
			t.Fatalf("child %d parent = %#x, want %#x", n, c.Parent, root.Span)
		}
		if !c.Valid() {
			t.Fatalf("child %d invalid", n)
		}
		if prev, dup := seen[c.Span]; dup {
			t.Fatalf("children %d and %d collide on span %#x", prev, n, c.Span)
		}
		seen[c.Span] = n
	}
	if c1, c2 := root.Child(5), root.Child(5); c1 != c2 {
		t.Fatalf("Child not deterministic: %+v vs %+v", c1, c2)
	}
	// An invalid context derives only invalid children: untraced stays
	// untraced through every layer without call-site branching.
	var zero TraceRef
	if c := zero.Child(3); c.Valid() || c != (TraceRef{}) {
		t.Fatalf("zero ref derived non-zero child %+v", c)
	}
}

func TestTraceRefDisabledAllocatesNothing(t *testing.T) {
	var r *Recorder
	var zero TraceRef
	pt := domain.Pt1(3)
	allocs := testing.AllocsPerRun(1000, func() {
		tc := zero.Child(1)
		r.SpanTC(tc, 0, StageExecute, "task", "tag", pt, 0, 10)
		r.SpanIDTC(tc, 7, 0, StageExecute, "task", "tag", pt, 0, 10)
		r.MarkTC(tc, 0, StageRetry, "task", "tag", pt, 5)
	})
	if allocs != 0 {
		t.Fatalf("disabled TC hooks allocate %.1f per op, want 0", allocs)
	}
}

// funcSink adapts a per-event function to Sink, expanding launch records.
type funcSink func(Event)

func (f funcSink) Record(ev Event) { f(ev) }

func (f funcSink) RecordLaunch(ls *LaunchSpans) {
	for _, ev := range ls.AppendEvents(nil, ls.Len()) {
		f(ev)
	}
}

func TestRecorderSinkSeesOnlyTracedEvents(t *testing.T) {
	r := NewRecorder("test", 1, 64)
	var got []Event
	r.SetSink(funcSink(func(ev Event) { got = append(got, ev) }))
	tc := NewTraceRef(1)
	r.SpanTC(tc, 0, StageIssue, "a", "a", domain.Point{}, 0, 5)
	r.Span(0, StageIssue, "b", "b", domain.Point{}, 0, 5) // untraced: must not reach the sink
	r.MarkTC(tc.Child(1), 0, StageRecv, "c", "c", domain.Point{}, 6)
	if len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2 (traced only)", len(got))
	}
	if got[0].Trace != tc.Trace || got[0].Span != tc.Span {
		t.Fatalf("sink event 0 lost its stamp: %+v", got[0])
	}
	if got[1].Parent != tc.Span {
		t.Fatalf("sink event 1 parent = %#x, want %#x", got[1].Parent, tc.Span)
	}
	r.SetSink(nil)
	r.SpanTC(tc, 0, StageIssue, "d", "d", domain.Point{}, 7, 9)
	if len(got) != 2 {
		t.Fatalf("events reached a removed sink")
	}
}

func TestRecorderDroppedCountsRingOverflow(t *testing.T) {
	r := NewRecorder("test", 1, 16) // minimum ring
	for i := 0; i < 40; i++ {
		r.Span(0, StageExecute, "t", "t", domain.Point{}, int64(i), int64(i)+1)
	}
	if d := r.Dropped(); d != 40-16 {
		t.Fatalf("Dropped() = %d, want %d", d, 40-16)
	}
	var nilRec *Recorder
	if d := nilRec.Dropped(); d != 0 {
		t.Fatalf("nil recorder Dropped() = %d, want 0", d)
	}
}

func TestChromeTraceRoundTripsTraceStamps(t *testing.T) {
	r := NewRecorder("test", 2, 64)
	tc := NewTraceRef(99)
	r.SpanTC(tc, 0, StageIssue, "launch", "tag", domain.Point{}, 0, 10)
	r.SpanTC(tc.Child(1), 1, StageExecute, "launch", "tag", domain.Pt1(4), 2, 8)
	r.Span(1, StageFence, "", "fence", domain.Point{}, 10, 11) // untraced rides along
	p := r.Snapshot()

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[Stage]Event{}
	for _, ev := range back.Events {
		byStage[ev.Stage] = ev
	}
	is := byStage[StageIssue]
	if is.Trace != tc.Trace || is.Span != tc.Span || is.Parent != 0 {
		t.Fatalf("issue span stamps lost in round trip: %+v", is)
	}
	ex := byStage[StageExecute]
	if ex.Parent != tc.Span {
		t.Fatalf("execute span parent = %#x, want %#x", ex.Parent, tc.Span)
	}
	if f := byStage[StageFence]; f.Trace != 0 || f.Span != 0 {
		t.Fatalf("untraced span grew stamps in round trip: %+v", f)
	}
}
