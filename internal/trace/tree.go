package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"indexlaunch/internal/obs"
)

// Span-tree assembly and rendering: the Parent links stamped on events
// reconstruct the job's cross-layer call tree — job → sched admission →
// per-attempt execution → per-launch pipeline stages → per-point tasks
// and broadcast hops.

// Node is one span with its children, ordered by start time.
type Node struct {
	Ev       obs.Event
	Children []*Node
}

// Tree links spans into their span tree and returns the roots (spans
// whose parent is 0 or absent from the set — absence happens when a
// parent span was ring-dropped or truncated). Roots and children are
// ordered by start time with span identity as the tiebreak, so the tree
// is deterministic for a deterministic span set.
func Tree(spans []obs.Event) []*Node {
	nodes := make(map[uint64]*Node, len(spans))
	ordered := make([]*Node, 0, len(spans))
	for _, ev := range spans {
		n := &Node{Ev: ev}
		ordered = append(ordered, n)
		if ev.Span != 0 {
			// First writer wins on a duplicated span identity; later
			// duplicates still appear in the tree as their parent's
			// children.
			if _, dup := nodes[ev.Span]; !dup {
				nodes[ev.Span] = n
			}
		}
	}
	var roots []*Node
	for _, n := range ordered {
		if p, ok := nodes[n.Ev.Parent]; ok && n.Ev.Parent != 0 && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range ordered {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool {
		a, b := ns[i].Ev, ns[j].Ev
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Span < b.Span
	})
}

// Shape renders the span tree as a canonical signature string —
// stage names with sorted child shapes, e.g.
// "job(admit,enqueue,issue(logical,distribute,physical(execute)))" —
// the form the golden span-tree tests compare. Sorting children
// lexicographically (not by time) makes the shape a pure function of the
// tree's structure, immune to scheduling jitter.
func Shape(spans []obs.Event) string {
	roots := Tree(spans)
	parts := make([]string, len(roots))
	for i, r := range roots {
		parts[i] = shapeOf(r)
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

func shapeOf(n *Node) string {
	if len(n.Children) == 0 {
		return n.Ev.Stage.String()
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = shapeOf(c)
	}
	sort.Strings(parts)
	return n.Ev.Stage.String() + "(" + strings.Join(parts, ",") + ")"
}

// LaunchShape reduces a trace to launch granularity: one line per
// issue-stage span in start order, "issue:<tag> execute=N", where N
// counts execute-stage descendants — launches and their per-launch
// execute fan-out, independent of how physical analysis was recorded.
func LaunchShape(spans []obs.Event) string {
	roots := Tree(spans)
	var lines []string
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Ev.Stage == obs.StageIssue {
			lines = append(lines, fmt.Sprintf("issue:%s execute=%d", n.Ev.Tag, countStage(n, obs.StageExecute)))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return strings.Join(lines, "\n")
}

func countStage(n *Node, st obs.Stage) int {
	total := 0
	for _, c := range n.Children {
		if c.Ev.Stage == st {
			total++
		}
		total += countStage(c, st)
	}
	return total
}

// Render writes the trace as an indented cross-layer timeline — what
// `idxprof trace` prints. Each line is one span: offset and duration on
// the trace clock, stage, node, and the task/tag/point identity.
func (t *Trace) Render(w io.Writer) error {
	fmt.Fprintf(w, "trace %s  job %d  tenant %q  why=%s  %0.3fms  %d spans",
		t.TraceID, t.JobID, t.Tenant, t.Why, float64(t.LatencyNS())/1e6, len(t.Spans))
	if t.Truncated > 0 {
		fmt.Fprintf(w, "  (%d truncated)", t.Truncated)
	}
	if t.Err != "" {
		fmt.Fprintf(w, "\n  err: %s", t.Err)
	}
	fmt.Fprintln(w)
	var render func(n *Node, depth int) error
	render = func(n *Node, depth int) error {
		ev := n.Ev
		label := ev.Task
		if ev.Tag != "" {
			if label != "" {
				label += " "
			}
			label += ev.Tag
		}
		if ev.Point.Dim > 0 {
			label += " " + ev.Point.String()
		}
		kind := "span"
		if ev.Dur == 0 {
			kind = "mark"
		}
		if _, err := fmt.Fprintf(w, "%10.3fms %9.3fms  %s%-10s n%-3d %s %s\n",
			float64(ev.Start-t.StartNS)/1e6, float64(ev.Dur)/1e6,
			strings.Repeat("  ", depth), ev.Stage, ev.Node, kind, label); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := render(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range Tree(t.Spans) {
		if err := render(r, 0); err != nil {
			return err
		}
	}
	return nil
}

// Stages returns the distinct stage names present in the trace, sorted —
// the quick "did sched, rt and xport all contribute?" check.
func (t *Trace) Stages() []string {
	seen := map[string]bool{}
	for _, ev := range t.Spans {
		seen[ev.Stage.String()] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
