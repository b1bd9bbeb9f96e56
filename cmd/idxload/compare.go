package main

import (
	"fmt"
	"io"
	"math"
)

// setupSlack is the absolute floor under setup_s's bound: a set-up of a few
// tens of milliseconds moves by more than a quarter from fork noise alone, so
// it is worse only when it is also this many seconds slower.
const setupSlack = 0.050

// compareReports prints one row per (end-to-end metric, workload) of two
// reports — both medians, the relative change from a to b, the bound from
// BENCHMARK.json and a verdict — and returns how many rows are worse.
//
//	ok          b is no worse than a by more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  the inter-quartile spread of either side, as a share of its
//	            median, exceeds the bound: the runs cannot tell
func compareReports(w io.Writer, c *contract, a, b *report) int {
	worse := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s  %s\n", "metric", "workload", "a", "b", "change", "bound", "verdict")
	for _, m := range c.EndToEnd {
		for _, wl := range c.Workloads {
			pa, pb := a.pass(wl.Name, false), b.pass(wl.Name, false)
			if pa == nil || pb == nil {
				continue
			}
			ma, mb := pa.Metrics[m.Name], pb.Metrics[m.Name]
			if ma.Value == nil || mb.Value == nil {
				fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %6.0f%%  %s\n", m.Name, wl.Name, "null", "null", "", m.Bound*100, "unresolved")
				continue
			}
			change := (*mb.Value - *ma.Value) / *ma.Value
			loss := change // how much worse b is, as a share of a
			if m.Better == "higher" {
				loss = -change
			}
			verdict := "ok"
			switch {
			case relSpread(ma) > m.Bound || relSpread(mb) > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound && !(m.Name == "setup_s" && math.Abs(*mb.Value-*ma.Value) <= setupSlack):
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				m.Name, wl.Name, *ma.Value, *mb.Value, change*100, m.Bound*100, verdict)
		}
	}
	for _, wl := range c.Workloads {
		for _, r := range []*report{a, b} {
			if p := r.pass(wl.Name, false); p != nil && (p.Failed > 0 || !p.Correct) {
				fmt.Fprintf(w, "%-14s %-14s %d of %d ops failed, correct=%v: worse\n", "ops_failed", wl.Name, p.Failed, p.Attempted, p.Correct)
				worse++
			}
		}
	}
	return worse
}

// relSpread is a metric's inter-quartile distance as a share of its median;
// 0 when the report carries no quartiles.
func relSpread(m metric) float64 {
	if m.Q1 == nil || m.Q3 == nil || *m.Value == 0 {
		return 0
	}
	return math.Abs(*m.Q3-*m.Q1) / math.Abs(*m.Value)
}

// timingCounts are the count metrics that depend on timing and so need not
// repeat for a seed: polls depend on how fast jobs finish, journal records
// include the scheduler's coalesced tick advances, and frames include
// ack-timeout retransmissions.
var timingCounts = map[string]bool{
	"sched.polls_per_job": true, "wal.fsyncs_per_job": true,
	"wire.frames_per_point": true, "wire.bytes_per_point": true, "wire.retransmits": true,
}

// countDrift lists the exact-count layer metrics that differ between two
// reports of the same seed, and returns how many do; they must repeat exactly.
func countDrift(w io.Writer, c *contract, a, b *report) int {
	drift := 0
	for _, wl := range c.Workloads {
		pa, pb := a.pass(wl.Name, true), b.pass(wl.Name, true)
		if pa == nil || pb == nil {
			continue
		}
		for name, ma := range pa.Metrics {
			mb := pb.Metrics[name]
			if ma.Unit != "count" || timingCounts[name] || ma.Value == nil || mb.Value == nil {
				continue
			}
			if *ma.Value != *mb.Value {
				fmt.Fprintf(w, "count %-28s %-14s %v != %v\n", name, wl.Name, *ma.Value, *mb.Value)
				drift++
			}
		}
	}
	return drift
}
