package main

import (
	"strings"
	"testing"
	"time"
)

// newTestHarness builds a harness on the enclosing checkout with short
// windows and a single set-up per pass.
func newTestHarness(t *testing.T, seconds float64) *harness {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(root, 7, seconds)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.cleanup)
	for i := range h.defs.Workloads {
		w := &h.defs.Workloads[i]
		w.Setups = 1
		w.WarmupOps = w.Clients
		w.CountOps = 2 * w.Clients
	}
	return h
}

// TestSmokeAllWorkloads runs both passes of every workload with a 300 ms
// window and holds the results to the contract: every metric BENCHMARK.json lists is
// measured, no op fails, every output check passes.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns idxserve and idxnode")
	}
	h := newTestHarness(t, 0.3)
	c, err := readContract(h.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(h.defs.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, workloads.json %d", len(c.Workloads), len(h.defs.Workloads))
	}
	for i := range h.defs.Workloads {
		w := &h.defs.Workloads[i]
		if c.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, workloads.json %q", i, c.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			p := h.runPass(w, traced)
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					w.Name, traced, p.Correct, p.Attempted, p.Failed, p.Errors)
				continue
			}
			line, err := c.resultLine(p)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
				t.Errorf("%s traced=%v: result line %s", w.Name, traced, line)
			}
			if !traced {
				continue
			}
			// A layer that does not run on a workload must read zero there.
			for name, runsOn := range map[string]string{"wire.frames_per_point": "cluster.wide", "xport.sends_per_launch": "rt.central"} {
				v := p.Metrics[name].Value
				if v == nil || (*v != 0) != (w.Name == runsOn) {
					t.Errorf("%s: %s = %v; it must be non-zero on %s only", w.Name, name, v, runsOn)
				}
			}
		}
	}
}

// TestServerDeathIsReported kills idxserve under a running closed loop: the
// phase must stop, count the scheduled remainder as failed, and carry the
// child's post-mortem.
func TestServerDeathIsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns idxserve")
	}
	h := newTestHarness(t, 0.3)
	w, _ := h.defs.find("serve.small")
	sys, err := h.setUp(w, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	hs := sys.(*httpSystem)
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = hs.serve.cmd.Process.Kill()
	}()
	const scheduled = 1000000
	res := drive(sys, w, tracer{}, scheduled, 0)
	if !res.dead {
		t.Fatal("drive did not notice the server died")
	}
	if res.attempted != scheduled || res.failed < scheduled-len(res.samples) || res.failed == 0 {
		t.Errorf("attempted %d failed %d completed %d of %d scheduled", res.attempted, res.failed, len(res.samples), scheduled)
	}
	if pm := sys.postMortem(); !strings.Contains(pm, "idxserve") || !strings.Contains(pm, "killed") {
		t.Errorf("post-mortem does not name the dead child: %q", pm)
	}
}
