package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"indexlaunch/internal/domain"
)

func TestStageStringRoundTrip(t *testing.T) {
	for _, st := range Stages() {
		name := st.String()
		if name == "unknown" {
			t.Fatalf("stage %d has no name", st)
		}
		got, ok := ParseStage(name)
		if !ok || got != st {
			t.Fatalf("ParseStage(%q) = %v, %v; want %v, true", name, got, ok, st)
		}
	}
	if _, ok := ParseStage("bogus"); ok {
		t.Fatal("ParseStage accepted an unknown name")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 || r.NextID() != 0 {
		t.Fatal("nil recorder clocks/IDs not zero")
	}
	r.Span(0, StageExecute, "t", "g", domain.Pt1(1), 0, 10)
	r.SpanID(1, 0, StageExecute, "t", "g", domain.Pt1(1), 0, 10)
	r.Mark(0, StageRetry, "t", "g", domain.Pt1(1), 5)
	r.Edge(1, 2)
	r.SetWall(99)
	p := r.Snapshot()
	if len(p.Events) != 0 || p.Source != "disabled" {
		t.Fatalf("nil snapshot = %+v", p)
	}
}

func TestSnapshotSortsAndInfersWall(t *testing.T) {
	r := NewRecorder("rt", 2, 64)
	r.Span(1, StageExecute, "b", "g", domain.Pt1(1), 50, 80)
	r.Span(0, StageIssue, "a", "g", domain.Point{}, 0, 10)
	r.Span(0, StageExecute, "a", "g", domain.Pt1(0), 10, 40)
	p := r.Snapshot()
	if len(p.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(p.Events))
	}
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i-1].Start > p.Events[i].Start {
			t.Fatalf("events not sorted by start: %+v", p.Events)
		}
	}
	if p.WallNS != 80 {
		t.Fatalf("inferred wall = %d, want 80", p.WallNS)
	}
	r.SetWall(100)
	if got := r.Snapshot().WallNS; got != 100 {
		t.Fatalf("explicit wall = %d, want 100", got)
	}
}

func TestRingOverflowCountsDropped(t *testing.T) {
	r := NewRecorder("rt", 1, 16)
	for i := 0; i < 40; i++ {
		r.Span(0, StageExecute, "t", "g", domain.Pt1(int64(i)), int64(i), int64(i)+1)
	}
	p := r.Snapshot()
	if len(p.Events) != 16 {
		t.Fatalf("kept %d events, want ring capacity 16", len(p.Events))
	}
	if p.Dropped != 24 {
		t.Fatalf("dropped = %d, want 24", p.Dropped)
	}
	// The survivors must be the newest events (starts 24..39).
	if p.Events[0].Start != 24 || p.Events[15].Start != 39 {
		t.Fatalf("ring kept wrong window: first=%d last=%d", p.Events[0].Start, p.Events[15].Start)
	}
}

// Dependence edges are bounded like the event rings: fed ten times their
// capacity, the recorder keeps the newest edges, oldest first, and counts
// the rest as dropped.
func TestEdgesBoundedLikeRing(t *testing.T) {
	const capacity = 2 * 16 // two rings of 16 events
	r := NewRecorder("rt", 2, 16)
	for i := int64(1); i <= 10*capacity; i++ {
		r.Edge(i, i+1)
	}
	p := r.Snapshot()
	if len(p.Edges) != capacity {
		t.Fatalf("kept %d edges, want %d", len(p.Edges), capacity)
	}
	for j, e := range p.Edges {
		if from := int64(9*capacity + 1 + j); e != (Edge{From: from, To: from + 1}) {
			t.Fatalf("edge %d = %+v, want %d → %d", j, e, from, from+1)
		}
	}
	if p.Dropped != 9*capacity || r.Dropped() != 9*capacity {
		t.Fatalf("dropped = %d (live %d), want %d", p.Dropped, r.Dropped(), 9*capacity)
	}
}

func TestConcurrentRecording(t *testing.T) {
	const perG, gs = 200, 8
	r := NewRecorder("rt", 4, perG*gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := r.NextID()
				r.SpanID(id, g%4, StageExecute, "t", "g", domain.Pt1(int64(i)), int64(i), int64(i)+1)
				r.Edge(id, id+1)
			}
		}(g)
	}
	wg.Wait()
	p := r.Snapshot()
	if len(p.Events) != perG*gs {
		t.Fatalf("events = %d, want %d", len(p.Events), perG*gs)
	}
	if len(p.Edges) != perG*gs {
		t.Fatalf("edges = %d, want %d", len(p.Edges), perG*gs)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder("sim", 2, 64)
	id1, id2 := r.NextID(), r.NextID()
	r.Span(0, StageIssue, "calc", "calc", domain.Point{}, 0, 1000)
	r.SpanID(id1, 0, StageExecute, "calc", "calc", domain.Pt1(3), 1000, 5000)
	r.SpanID(id2, 1, StageExecute, "calc", "calc", domain.Pt3(1, 2, 3), 5100, 9000)
	r.Mark(1, StageRetry, "calc", "calc", domain.Pt1(3), 6000)
	r.Edge(id1, id2)
	r.SetWall(9000)
	p := r.Snapshot()

	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"cat":"execute"`, `"pid":1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace JSON missing %s:\n%s", want, out)
		}
	}

	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "sim" || got.Nodes != 2 || got.WallNS != 9000 || got.Dropped != 0 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Events) != len(p.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(p.Events))
	}
	for i := range p.Events {
		if got.Events[i] != p.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], p.Events[i])
		}
	}
	if len(got.Edges) != 1 || got.Edges[0] != (Edge{From: id1, To: id2}) {
		t.Fatalf("edges = %+v", got.Edges)
	}
}

func TestParsePoint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want domain.Point
		ok   bool
	}{
		{"<7>", domain.Pt1(7), true},
		{"<1,2>", domain.Pt2(1, 2), true},
		{"<1,2,3>", domain.Pt3(1, 2, 3), true},
		{"<-4,5>", domain.Pt2(-4, 5), true},
		{"1,2", domain.Point{}, false},
		{"<1,2,3,4>", domain.Point{}, false},
		{"<x>", domain.Point{}, false},
	} {
		got, err := parsePoint(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("parsePoint(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// chainProfile builds a profile with a known longest chain:
// a(0-10) -> b(20-50) -> d(60-100), with c(0-90) a longer-running but
// unbound span feeding d too.
func chainProfile() *Profile {
	r := NewRecorder("sim", 2, 64)
	a, b, c, d := r.NextID(), r.NextID(), r.NextID(), r.NextID()
	r.SpanID(a, 0, StageExecute, "a", "g", domain.Pt1(0), 0, 10)
	r.SpanID(b, 0, StageExecute, "b", "g", domain.Pt1(1), 20, 50)
	r.SpanID(c, 1, StageExecute, "c", "g", domain.Pt1(2), 0, 90)
	r.SpanID(d, 1, StageExecute, "d", "g", domain.Pt1(3), 90, 100)
	r.Edge(a, b)
	r.Edge(b, d)
	r.Edge(c, d)
	r.SetWall(100)
	return r.Snapshot()
}

func TestCriticalPath(t *testing.T) {
	cp := CriticalPath(chainProfile())
	if cp.TotalNS != 100 {
		t.Fatalf("total = %d, want 100", cp.TotalNS)
	}
	// d's binding predecessor is c (ends at 90, later than b's 50).
	var names []string
	for _, s := range cp.Steps {
		names = append(names, s.Ev.Task)
	}
	if got := strings.Join(names, ">"); got != "c>d" {
		t.Fatalf("chain = %s, want c>d", got)
	}
	if cp.SpanNS != 100 {
		t.Fatalf("on-chain time = %d, want 100", cp.SpanNS)
	}
	out := cp.Render(100, 10)
	if !strings.Contains(out, "critical path: 2 spans") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCriticalPathNoSpans(t *testing.T) {
	r := NewRecorder("rt", 1, 16)
	r.Span(0, StageIssue, "a", "g", domain.Point{}, 0, 5)
	cp := CriticalPath(r.Snapshot())
	if len(cp.Steps) != 0 {
		t.Fatalf("steps = %d, want 0", len(cp.Steps))
	}
	if !strings.Contains(cp.Render(5, 5), "no identified spans") {
		t.Fatal("render of empty path missing notice")
	}
}

func TestAggregatesAndRenderers(t *testing.T) {
	p := chainProfile()
	st := StageTotals(p)
	if len(st) != 1 || st[0].Stage != StageExecute || st[0].Count != 4 || st[0].TotalNS != 140 {
		t.Fatalf("stage totals = %+v", st)
	}
	tags := TagTotals(p)
	if len(tags) != 1 || tags[0].Tag != "g" || tags[0].ExecNS != 140 {
		t.Fatalf("tag totals = %+v", tags)
	}
	nodes := NodeTotals(p)
	if nodes[0].ExecNS != 40 || nodes[1].ExecNS != 100 {
		t.Fatalf("node totals = %+v", nodes)
	}
	sum := RenderSummary(p)
	if !strings.Contains(sum, "source=sim") || !strings.Contains(sum, "execute") {
		t.Fatalf("summary:\n%s", sum)
	}
	tl := RenderTimeline(p, 40)
	if !strings.Contains(tl, "node 0") || !strings.Contains(tl, "#") {
		t.Fatalf("timeline:\n%s", tl)
	}
}
