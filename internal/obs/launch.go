package obs

import "indexlaunch/internal/domain"

// A traced index launch records its per-point spans as one LaunchSpans
// record instead of two events per point (paper §5: the parent holds one
// identifier for the whole group). The record stores what is measured —
// each point's node and its physical and execute clock readings — in one
// pointer-free array; what is derived is never stored: a point's span
// context is launch.Point(p) and its execute span's is
// launch.Point(p).Child(ChildExecute), both pure functions of the launch
// context and the point, recomputed whenever the record is read.

// ChildExecute is the execute span's child index under a point context.
const ChildExecute = 1

// PointChildKey derives a stable per-point child index from the point's
// coordinates — a pure function, so concurrent replays of the same launch
// produce identical span identities without a counter. Keys below 16 are
// reserved for launch-level stage spans.
func PointChildKey(p domain.Point) uint64 {
	h := uint64(0x706f696e74) // "point"
	for i := 0; i < p.Dim; i++ {
		h = Mix64(h ^ uint64(p.C[i]))
	}
	if h < 16 {
		h += 16
	}
	return h
}

// Point returns the span context of launch point p under the launch
// context t; the zero ref for an untraced launch.
func (t TraceRef) Point(p domain.Point) TraceRef {
	if t.Trace == 0 {
		return TraceRef{}
	}
	return t.Child(PointChildKey(p))
}

// LaunchSpans is one traced index launch's per-point spans: slot i, point
// Dom.PointAt(i) in issuance order, holds its physical-analysis span and its
// execute span, whose dependence-graph ID is FirstID + i. A record is
// immutable once handed to Recorder.RecordLaunch.
type LaunchSpans struct {
	TC      TraceRef // the launch's span context
	Task    string
	Tag     string
	FirstID int64
	Dom     domain.Domain
	Rows    []PointSpans
}

// PointSpans is one slot of a LaunchSpans record. A node of -1 means the
// span was not recorded: a replayed point skips physical analysis, a
// skipped point never executes.
type PointSpans struct {
	PhysStart, PhysDur int64
	ExecStart, ExecDur int64
	PhysNode, ExecNode int32
}

// NewLaunchSpans returns an empty record for a launch over d.
func NewLaunchSpans(tc TraceRef, firstID int64, task, tag string, d domain.Domain) *LaunchSpans {
	rows := make([]PointSpans, d.Volume())
	for i := range rows {
		rows[i].PhysNode, rows[i].ExecNode = -1, -1
	}
	return &LaunchSpans{TC: tc, Task: task, Tag: tag, FirstID: firstID, Dom: d, Rows: rows}
}

// Len counts the spans the record holds.
func (ls *LaunchSpans) Len() int {
	n := 0
	for i := range ls.Rows {
		row := &ls.Rows[i]
		if row.PhysNode >= 0 {
			n++
		}
		if row.ExecNode >= 0 {
			n++
		}
	}
	return n
}

// AppendEvents appends the record's first limit spans to dst, in slot
// order with a point's physical span before its execute span.
func (ls *LaunchSpans) AppendEvents(dst []Event, limit int) []Event {
	for i := range ls.Rows {
		if limit <= 0 {
			break
		}
		phys, exec := ls.events(i)
		if ls.Rows[i].PhysNode >= 0 {
			dst = append(dst, phys)
			limit--
		}
		if ls.Rows[i].ExecNode >= 0 && limit > 0 {
			dst = append(dst, exec)
			limit--
		}
	}
	return dst
}

// events expands slot i into its physical and execute spans.
func (ls *LaunchSpans) events(i int) (phys, exec Event) {
	row, p := &ls.Rows[i], ls.Dom.PointAt(int64(i))
	ptc := ls.TC.Point(p)
	etc := ptc.Child(ChildExecute)
	phys = Event{Node: row.PhysNode, Stage: StagePhysical, Task: ls.Task, Tag: ls.Tag, Point: p,
		Start: row.PhysStart, Dur: row.PhysDur, Trace: ptc.Trace, Span: ptc.Span, Parent: ptc.Parent}
	exec = Event{ID: ls.FirstID + int64(i), Node: row.ExecNode, Stage: StageExecute, Task: ls.Task, Tag: ls.Tag,
		Point: p, Start: row.ExecStart, Dur: row.ExecDur, Trace: etc.Trace, Span: etc.Span, Parent: etc.Parent}
	return phys, exec
}
