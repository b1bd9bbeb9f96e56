package obs

import (
	"fmt"
	"sort"
	"strings"
)

// StageTotal aggregates one pipeline stage across the profile.
type StageTotal struct {
	Stage   Stage
	Count   int
	TotalNS int64
}

// StageTotals aggregates span counts and durations per stage, in taxonomy
// order; stages with no events are omitted.
func StageTotals(p *Profile) []StageTotal {
	var acc [numStages]StageTotal
	for _, ev := range p.Events {
		acc[ev.Stage].Count++
		acc[ev.Stage].TotalNS += ev.Dur
	}
	out := make([]StageTotal, 0, numStages)
	for i := range acc {
		if acc[i].Count > 0 {
			acc[i].Stage = Stage(i)
			out = append(out, acc[i])
		}
	}
	return out
}

// TagTotal aggregates one launch tag: processor (execute) time vs runtime
// pipeline (issue/logical/distribute/physical/replay) time.
type TagTotal struct {
	Tag       string
	Spans     int
	ExecNS    int64
	RuntimeNS int64
}

// TagTotals aggregates per-launch attribution, sorted by execute time
// descending, then name. Events with no tag (fences, faults) are grouped
// under "(untagged)".
func TagTotals(p *Profile) []TagTotal {
	acc := map[string]*TagTotal{}
	order := []string{}
	for _, ev := range p.Events {
		tag := ev.Tag
		if tag == "" {
			tag = "(untagged)"
		}
		t := acc[tag]
		if t == nil {
			t = &TagTotal{Tag: tag}
			acc[tag] = t
			order = append(order, tag)
		}
		t.Spans++
		switch ev.Stage {
		case StageExecute:
			t.ExecNS += ev.Dur
		case StageIssue, StageLogical, StageDistribute, StagePhysical, StageReplay:
			t.RuntimeNS += ev.Dur
		}
	}
	out := make([]TagTotal, 0, len(order))
	for _, tag := range order {
		out = append(out, *acc[tag])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExecNS != out[j].ExecNS {
			return out[i].ExecNS > out[j].ExecNS
		}
		return out[i].Tag < out[j].Tag
	})
	return out
}

// NodeBusy is one node's per-stage busy time.
type NodeBusy struct {
	Node      int
	ExecNS    int64
	RuntimeNS int64
}

// NodeTotals aggregates busy time per node.
func NodeTotals(p *Profile) []NodeBusy {
	nodes := p.Nodes
	if nodes < 1 {
		nodes = 1
	}
	out := make([]NodeBusy, nodes)
	for i := range out {
		out[i].Node = i
	}
	for _, ev := range p.Events {
		n := int(ev.Node)
		if n < 0 || n >= nodes {
			continue
		}
		switch ev.Stage {
		case StageExecute:
			out[n].ExecNS += ev.Dur
		case StageIssue, StageLogical, StageDistribute, StagePhysical, StageReplay:
			out[n].RuntimeNS += ev.Dur
		}
	}
	return out
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// RenderSummary prints the header line and the per-stage and per-launch
// aggregation tables.
func RenderSummary(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: source=%s nodes=%d events=%d dropped=%d wall=%.6fs\n",
		p.Source, p.Nodes, len(p.Events), p.Dropped, seconds(p.WallNS))

	b.WriteString("\nper-stage totals\n")
	fmt.Fprintf(&b, "%-12s %8s %14s %14s %7s\n", "stage", "spans", "total", "mean", "%wall")
	for _, st := range StageTotals(p) {
		pct := 0.0
		if p.WallNS > 0 {
			pct = float64(st.TotalNS) / float64(p.WallNS) * 100
		}
		fmt.Fprintf(&b, "%-12s %8d %13.6fs %13.9fs %6.1f%%\n",
			st.Stage, st.Count, seconds(st.TotalNS), seconds(st.TotalNS)/float64(st.Count), pct)
	}

	b.WriteString("\nper-launch totals\n")
	fmt.Fprintf(&b, "%-28s %8s %14s %14s\n", "launch", "spans", "execute", "runtime")
	for _, t := range TagTotals(p) {
		fmt.Fprintf(&b, "%-28s %8d %13.6fs %13.6fs\n",
			t.Tag, t.Spans, seconds(t.ExecNS), seconds(t.RuntimeNS))
	}
	return b.String()
}

// stageMarks paints timelines; later entries in paintOrder win when spans
// overlap a column, so execution dominates analysis which dominates
// bookkeeping — the convention of internal/bench's ASCII charts.
var stageMarks = [numStages]byte{
	StageIssue:      'i',
	StageLogical:    'l',
	StageDistribute: 'd',
	StagePhysical:   'p',
	StageExecute:    '#',
	StageRetry:      '!',
	StageFault:      'X',
	StageFence:      'f',
	StageCapture:    'c',
	StageReplay:     'r',
	StageSend:       '>',
	StageRecv:       '<',
	StageRetransmit: '~',
	StageEnqueue:    'q',
	StageAdmit:      'a',
	StagePreempt:    'P',
	StageDrain:      'D',
	StageJournal:    'j',
	StageSnapshot:   'z',
	StageRecover:    'R',
}

var paintOrder = []Stage{
	StageDrain, StageEnqueue, StageAdmit,
	StageFence, StageCapture, StageIssue, StageLogical, StageDistribute,
	StageSend, StageRecv, StageRetransmit,
	StageReplay, StagePhysical, StageExecute, StageRetry, StageFault, StagePreempt,
}

// RenderTimeline draws one row per node: the profile's wall clock scaled to
// width columns, each column showing the highest-priority stage active
// there. The right margin reports the node's execute occupancy.
func RenderTimeline(p *Profile, width int) string {
	if width < 16 {
		width = 16
	}
	nodes := p.Nodes
	if nodes < 1 {
		nodes = 1
	}
	var b strings.Builder
	if p.WallNS <= 0 || len(p.Events) == 0 {
		return "node timelines: no events\n"
	}
	perCol := float64(p.WallNS) / float64(width)
	fmt.Fprintf(&b, "node timelines (1 col = %.6fs)\n", seconds(int64(perCol)))

	rows := make([][]byte, nodes)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	byStage := map[Stage][]Event{}
	for _, ev := range p.Events {
		byStage[ev.Stage] = append(byStage[ev.Stage], ev)
	}
	for _, st := range paintOrder {
		for _, ev := range byStage[st] {
			n := int(ev.Node)
			if n < 0 || n >= nodes {
				continue
			}
			lo := int(float64(ev.Start) / float64(p.WallNS) * float64(width))
			hi := int(float64(ev.End()) / float64(p.WallNS) * float64(width))
			if lo < 0 {
				lo = 0
			}
			if lo >= width {
				lo = width - 1
			}
			if hi <= lo {
				hi = lo + 1 // instants and sub-column spans paint one column
			}
			if hi > width {
				hi = width
			}
			for c := lo; c < hi; c++ {
				rows[n][c] = stageMarks[st]
			}
		}
	}
	busy := NodeTotals(p)
	for n, row := range rows {
		occ := float64(busy[n].ExecNS) / float64(p.WallNS) * 100
		fmt.Fprintf(&b, "node %-4d |%s| exec %5.1f%%\n", n, string(row), occ)
	}
	b.WriteString("          +" + strings.Repeat("-", width) + "+\n")
	b.WriteString("  marks: # execute  p physical  d distribute  l logical  i issue  r replay  ! retry  X fault  f fence  c capture  > send  < recv  ~ retransmit\n")
	return b.String()
}

// CritStep is one span on the critical path with the wait (gap) separating
// it from its binding predecessor.
type CritStep struct {
	Ev     Event
	WaitNS int64
}

// Contribution aggregates critical-path time by task name.
type Contribution struct {
	Task    string
	Count   int
	TotalNS int64
}

// CritPath is the longest dependence chain through the recorded span graph.
type CritPath struct {
	// Steps runs from the chain's root to the last-finishing span.
	Steps []CritStep
	// TotalNS is the completion time of the chain's final span — the
	// profile-clock time the whole run was bound by.
	TotalNS int64
	// SpanNS is the execution time actually on the chain; TotalNS - SpanNS
	// is wait and unattributed (analysis, transfer) time.
	SpanNS int64
	// Contrib breaks SpanNS down by task, largest first.
	Contrib []Contribution
}

// CriticalPath walks the dependence graph backwards from the last-finishing
// identified span, at each step moving to the predecessor with the latest
// completion — the dependence that actually bound the start. Spans without
// IDs (runtime-stage spans) do not participate; their cost shows up as wait
// time between chain steps.
func CriticalPath(p *Profile) CritPath {
	byID := map[int64]Event{}
	var last Event
	for _, ev := range p.Events {
		if ev.ID == 0 {
			continue
		}
		byID[ev.ID] = ev
		if last.ID == 0 || ev.End() > last.End() {
			last = ev
		}
	}
	if last.ID == 0 {
		return CritPath{}
	}
	preds := map[int64][]int64{}
	for _, e := range p.Edges {
		preds[e.To] = append(preds[e.To], e.From)
	}
	var rev []CritStep
	seen := map[int64]bool{}
	cur := last
	for {
		seen[cur.ID] = true
		var best Event
		for _, from := range preds[cur.ID] {
			ev, ok := byID[from]
			if !ok || seen[ev.ID] {
				continue
			}
			if best.ID == 0 || ev.End() > best.End() {
				best = ev
			}
		}
		if best.ID == 0 {
			rev = append(rev, CritStep{Ev: cur, WaitNS: 0})
			break
		}
		wait := cur.Start - best.End()
		if wait < 0 {
			wait = 0
		}
		rev = append(rev, CritStep{Ev: cur, WaitNS: wait})
		cur = best
	}
	cp := CritPath{TotalNS: last.End()}
	contrib := map[string]*Contribution{}
	for i := len(rev) - 1; i >= 0; i-- {
		step := rev[i]
		cp.Steps = append(cp.Steps, step)
		cp.SpanNS += step.Ev.Dur
		name := step.Ev.Task
		if name == "" {
			name = step.Ev.Tag
		}
		c := contrib[name]
		if c == nil {
			c = &Contribution{Task: name}
			contrib[name] = c
		}
		c.Count++
		c.TotalNS += step.Ev.Dur
	}
	for _, c := range contrib {
		cp.Contrib = append(cp.Contrib, *c)
	}
	sort.Slice(cp.Contrib, func(i, j int) bool {
		if cp.Contrib[i].TotalNS != cp.Contrib[j].TotalNS {
			return cp.Contrib[i].TotalNS > cp.Contrib[j].TotalNS
		}
		return cp.Contrib[i].Task < cp.Contrib[j].Task
	})
	return cp
}

// Render prints the critical path: the headline total, the top task
// contributors, and up to maxSteps chain steps.
func (cp CritPath) Render(wallNS int64, maxSteps int) string {
	var b strings.Builder
	if len(cp.Steps) == 0 {
		return "critical path: no identified spans recorded\n"
	}
	pct := 0.0
	if wallNS > 0 {
		pct = float64(cp.TotalNS) / float64(wallNS) * 100
	}
	fmt.Fprintf(&b, "critical path: %d spans, total %.6fs (%.1f%% of %.6fs elapsed); on-chain execute %.6fs, waits %.6fs\n",
		len(cp.Steps), seconds(cp.TotalNS), pct, seconds(wallNS),
		seconds(cp.SpanNS), seconds(cp.TotalNS-cp.SpanNS))
	b.WriteString("  top contributors:\n")
	for i, c := range cp.Contrib {
		if i >= 5 {
			break
		}
		fmt.Fprintf(&b, "    %-28s %6d spans %13.6fs\n", c.Task, c.Count, seconds(c.TotalNS))
	}
	if maxSteps <= 0 {
		maxSteps = 12
	}
	n := len(cp.Steps)
	show := n
	if show > maxSteps {
		show = maxSteps
	}
	fmt.Fprintf(&b, "  chain (last %d of %d):\n", show, n)
	for _, step := range cp.Steps[n-show:] {
		name := step.Ev.Task
		if name == "" {
			name = step.Ev.Tag
		}
		pt := ""
		if step.Ev.Point.Dim > 0 {
			pt = step.Ev.Point.String()
		}
		fmt.Fprintf(&b, "    node %-3d %-28s %-8s wait %10.6fs run %10.6fs end %10.6fs\n",
			step.Ev.Node, name, pt, seconds(step.WaitNS), seconds(step.Ev.Dur), seconds(step.Ev.End()))
	}
	return b.String()
}
