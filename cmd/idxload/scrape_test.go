package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP idx_tasks_executed_total completed point tasks
# TYPE idx_tasks_executed_total counter
idx_tasks_executed_total 8
wire_peer_msgs_sent_total{peer="1"} 10
wire_peer_msgs_sent_total{peer="2"} 4
idx_stage_latency_ns_bucket{stage="issue",le="1024"} 1
idx_stage_latency_ns_sum{stage="issue"} 100
idx_stage_latency_ns_count{stage="issue"} 1
sched_enqueued_total{tenant="a b"} 3
`

const promAfter = `idx_tasks_executed_total 40
wire_peer_msgs_sent_total{peer="1"} 25
wire_peer_msgs_sent_total{peer="2"} 9
idx_stage_latency_ns_bucket{stage="issue",le="1024"} 5
idx_stage_latency_ns_sum{stage="issue"} 700
idx_stage_latency_ns_count{stage="issue"} 4
sched_enqueued_total{tenant="a b"} 7
wal_fsyncs_total 12
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	for k := range before {
		if strings.Contains(k, "_bucket") {
			t.Errorf("bucket series kept: %s", k)
		}
	}
	d := before.delta(after)
	checks := []struct {
		what      string
		got, want float64
	}{
		{"counter", d.sum("idx_tasks_executed_total"), 32},
		{"sum across label sets", d.sum("wire_peer_msgs_sent_total"), 20},
		{"histogram sum", d[`idx_stage_latency_ns_sum{stage="issue"}`], 600},
		{"histogram count", d[`idx_stage_latency_ns_count{stage="issue"}`], 3},
		{"label value with a space", d.sum("sched_enqueued_total"), 4},
		{"series absent before counts from zero", d.sum("wal_fsyncs_total"), 12},
		{"absent family: the layer did nothing", d.sum("xport_sends_total"), 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}

	both := samples{}
	both.add(before)
	both.add(before)
	if got := both.sum("idx_tasks_executed_total"); got != 16 {
		t.Errorf("add: got %v, want 16", got)
	}
	if _, err := parseProm(strings.NewReader("lonely_name\n")); err == nil {
		t.Error("a sample line without a value must be an error")
	}
}
