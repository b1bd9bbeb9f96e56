package xport

import (
	"testing"
)

func probeTransport(t *testing.T, nodes int, chaos *ChaosPlan) *Transport {
	t.Helper()
	tr, err := New(nodes, Options{
		Chaos:   chaos,
		Deliver: func(int, any) {},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

func TestProbeFaultFree(t *testing.T) {
	tr := probeTransport(t, 8, nil)
	for n := 1; n < 8; n++ {
		if !tr.Probe(n, 1) {
			t.Fatalf("fault-free probe of node %d failed", n)
		}
	}
	if tr.Probe(0, 3) {
		t.Fatal("probing the observer should report false")
	}
	if tr.Probe(8, 3) || tr.Probe(-1, 3) {
		t.Fatal("out-of-range probe should report false")
	}
	if got := tr.mx.probes.Value(); got != 7 {
		t.Fatalf("probe counter = %d, want 7", got)
	}
	if got := tr.mx.probeFails.Value(); got != 0 {
		t.Fatalf("probe failure counter = %d, want 0", got)
	}
}

// TestProbePartitionStarvesAndHeals: a partition window over the 0<->1 link
// fails probes of node 1 while it lasts; since every probe attempt advances
// the probe-traffic partition clock, the window always heals.
func TestProbePartitionStarvesAndHeals(t *testing.T) {
	tr := probeTransport(t, 4, &ChaosPlan{
		Seed:       7,
		Partitions: []Partition{{A: 0, B: 1, AfterSends: 0, Sends: 10}},
	})
	fails := 0
	for i := 0; i < 20; i++ {
		if !tr.Probe(1, 2) {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("partitioned link never failed a probe")
	}
	if !tr.Probe(1, 2) {
		t.Fatal("probe still failing after the partition window healed")
	}
	if got := tr.mx.probeFails.Value(); int(got) != fails {
		t.Fatalf("probe failure counter = %d, want %d", got, fails)
	}
}

// TestProbeRoutesThroughTree: killing an interior relay makes probes of its
// subtree route around it, and a partition on the direct 0<->3 link then
// starves them; MarkAlive restores the relay route, which the partition does
// not cover.
func TestProbeRoutesThroughTree(t *testing.T) {
	// 8-node tree: node 3's parent is 1. Partition covers 0<->3 (the
	// re-parented route), not 1->3.
	tr := probeTransport(t, 8, &ChaosPlan{
		Seed:       1,
		Partitions: []Partition{{A: 0, B: 3, AfterSends: 0, Sends: 1 << 30}},
	})
	if !tr.Probe(3, 1) {
		t.Fatal("probe via live relay 1 should not touch the 0<->3 partition")
	}
	tr.MarkDead(1)
	if tr.Probe(3, 3) {
		t.Fatal("probe of node 3 should re-parent onto the partitioned 0->3 link and fail")
	}
	tr.MarkAlive(1)
	if !tr.Probe(3, 1) {
		t.Fatal("probe should succeed again once the relay is readmitted")
	}
}

// TestProbeDeadDestinationReachable: a destination marked dead must stay
// probeable — that is how a comeback is detected.
func TestProbeDeadDestinationReachable(t *testing.T) {
	tr := probeTransport(t, 4, nil)
	tr.MarkDead(2)
	if !tr.Probe(2, 1) {
		t.Fatal("dead destination should still answer a fault-free probe")
	}
}

// TestProbeDeterministicSchedule: with a lossy plan, the sequence of probe
// outcomes is a pure function of the plan and the probe order.
func TestProbeDeterministicSchedule(t *testing.T) {
	run := func() []bool {
		tr := probeTransport(t, 8, &ChaosPlan{Seed: 42, Drop: 0.4})
		var out []bool
		for i := 0; i < 50; i++ {
			out = append(out, tr.Probe(1+i%7, 2))
		}
		return out
	}
	first := run()
	sawFail := false
	for _, ok := range first {
		if !ok {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("lossy plan never failed a probe; schedule too weak")
	}
	for i := 0; i < 4; i++ {
		got := run()
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d probe %d outcome %v differs from first run %v", i, j, got[j], first[j])
			}
		}
	}
}

// TestProbeIndependentOfDataTraffic: interleaving broadcasts between probes
// must not change probe outcomes — probe traffic has its own sequence and
// partition clocks.
func TestProbeIndependentOfDataTraffic(t *testing.T) {
	plan := &ChaosPlan{Seed: 99, Drop: 0.4}
	probesOnly := func() []bool {
		tr := probeTransport(t, 4, plan)
		var out []bool
		for i := 0; i < 20; i++ {
			out = append(out, tr.Probe(1, 2))
		}
		return out
	}
	interleaved := func() []bool {
		tr := probeTransport(t, 4, plan)
		tr.rp = RetransmitPolicy{Timeout: 200e3, MaxBackoff: 2e6}
		var out []bool
		for i := 0; i < 20; i++ {
			tr.Broadcast("data", []Item{{Dst: 1, Payload: i}})
			out = append(out, tr.Probe(1, 2))
		}
		return out
	}
	a, b := probesOnly(), interleaved()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d outcome changed when data traffic interleaved: %v vs %v", i, a[i], b[i])
		}
	}
}
