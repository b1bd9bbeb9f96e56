package main

import (
	"math"
	"testing"

	"indexlaunch/internal/obs"
)

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	root := obs.NewTraceRef(1)
	ev := func(tc obs.TraceRef, name string, start, end int64) obs.Event {
		return obs.Event{Task: name, Start: start, Dur: end - start, Trace: tc.Trace, Span: tc.Span, Parent: tc.Parent}
	}
	wait := root.Child(1)
	events := []obs.Event{
		ev(root, spanJob, 0, 10e6),
		ev(root.Child(0), spanSubmit, 0, 3e6),
		ev(wait, spanWait, 4e6, 12e6), // runs past its parent: clipped to [4,10]
		// Two polls that overlap each other cover [5,8] once, not twice.
		ev(wait.Child(0), spanPoll, 5e6, 7e6),
		ev(wait.Child(1), spanPoll, 6e6, 8e6),
		// Another trace's span with the same parent id must not be counted.
		{Task: spanPoll, Start: 0, Dur: 10e6, Trace: root.Trace + 1, Span: 99, Parent: root.Span},
		// Untraced events are not the harness's.
		{Task: "noise", Start: 0, Dur: 5e6},
	}
	got := selfTimes(events)
	want := map[string]selfStat{
		spanJob:    {Count: 1, TotalMS: 10, SelfMS: 1}, // 10 - submit 3 - wait 6
		spanSubmit: {Count: 1, TotalMS: 3, SelfMS: 3},
		spanWait:   {Count: 1, TotalMS: 8, SelfMS: 5}, // 8 - polls [5,8]
		spanPoll:   {Count: 3, TotalMS: 14, SelfMS: 14},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalMS-w.TotalMS) > 1e-9 || math.Abs(g.SelfMS-w.SelfMS) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if _, ok := got["noise"]; ok {
		t.Error("untraced event counted")
	}
}
