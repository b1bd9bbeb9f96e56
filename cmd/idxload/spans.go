package main

import (
	"sort"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// Harness-side tracing. The harness records its own spans around every call
// into the system under test — client-side spans, measured from outside —
// into an obs.Recorder: one ring per client, the span name in Event.Task, the
// workload in Event.Tag, and parent links through obs.TraceRef (one trace per
// job or block). A nil recorder is the untraced pass: obs makes every call a
// no-op, so the load loops are written once.

// Span names the harness emits.
const (
	spanJob    = "job"         // HTTP: submit to terminal state seen
	spanSubmit = "http.submit" // POST /jobs round trip
	spanWait   = "job.wait"    // first poll to terminal state
	spanPoll   = "http.poll"   // one GET /jobs/{id} round trip
	spanBlock  = "block"       // rt: fenceEvery timesteps plus the fence
	spanStep   = "rt.ExecuteIndex"
	spanFence  = "rt.Fence"
)

// stageOf gives each harness span the closest obs stage, which the Chrome
// export uses as category and lane.
var stageOf = map[string]obs.Stage{
	spanJob: obs.StageJob, spanSubmit: obs.StageEnqueue, spanWait: obs.StageAdmit,
	spanPoll: obs.StageRecv, spanBlock: obs.StageJob, spanStep: obs.StageIssue,
	spanFence: obs.StageFence,
}

// tracer stamps spans of one workload into a recorder.
type tracer struct {
	rec      *obs.Recorder
	workload string
}

func (t tracer) now() int64 { return t.rec.Now() }

func (t tracer) span(tc obs.TraceRef, client int, name string, start, end int64) {
	if t.rec == nil {
		return
	}
	t.rec.SpanTC(tc, client, stageOf[name], name, t.workload, domain.Point{}, start, end)
}

// selfStat aggregates every span of one name.
type selfStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, total duration and self time: a span's
// duration minus the part of its interval that its child spans cover.
// Children are matched by (trace, parent span id); overlapping children are
// merged before subtracting, and a child is clipped to its parent.
func selfTimes(events []obs.Event) map[string]selfStat {
	type key struct{ trace, span uint64 }
	children := map[key][]obs.Event{}
	for _, ev := range events {
		if ev.Trace != 0 && ev.Parent != 0 {
			k := key{ev.Trace, ev.Parent}
			children[k] = append(children[k], ev)
		}
	}
	out := map[string]selfStat{}
	for _, ev := range events {
		if ev.Trace == 0 {
			continue
		}
		kids := children[key{ev.Trace, ev.Span}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, ev.Start
		for _, k := range kids {
			s, e := max(k.Start, reach), min(k.End(), ev.End())
			if e > s {
				covered += e - s
				reach = e
			}
		}
		st := out[ev.Task]
		st.Count++
		st.TotalMS += float64(ev.Dur) / 1e6
		st.SelfMS += float64(ev.Dur-covered) / 1e6
		out[ev.Task] = st
	}
	return out
}
