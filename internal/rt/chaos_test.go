package rt

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/region"
	"indexlaunch/internal/xport"
)

var errTransient = errors.New("transient")

// Default seed matrices: chaosSeeds for the chaos property suites
// (CHAOS_SEEDS), diffSeeds for the differential harness (RT_DIFF_SEEDS).
var (
	chaosSeeds = []int64{1, 7, 42, 99}
	diffSeeds  = []int64{1, 2, 3, 4, 5, 6, 7, 8}
)

// envSeeds returns a seed matrix: the comma-separated list in environment
// variable name when it is set (CI widens the matrices this way), defaults
// otherwise.
func envSeeds(t *testing.T, name string, defaults []int64) []int64 {
	env := os.Getenv(name)
	if env == "" {
		return defaults
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("%s entry %q: %v", name, f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// fastRetransmit keeps chaos tests quick: dropped hops re-send after 200µs.
var fastRetransmit = xport.RetransmitPolicy{
	Timeout:    200 * time.Microsecond,
	MaxBackoff: 2 * time.Millisecond,
}

// chaosRun executes the reference workload — four index launches of 16
// points over a 160-element line on an 8-node centralized runtime — under
// the given chaos plan and fault injector, and returns the field sum plus
// the runtime stats.
func chaosRun(t *testing.T, plan *xport.ChaosPlan, fi *FaultInjector, prof *obs.Recorder) (float64, Stats) {
	t.Helper()
	xp, err := xport.New(8, xport.Options{Chaos: plan, Retransmit: fastRetransmit, Prof: prof})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xp.Close() })
	r := MustNew(Config{
		Nodes: 8, ProcsPerNode: 2, IndexLaunches: true,
		Transport: xp, Fault: fi, Profile: prof,
	})
	tree, part := lineSetup(t, 160, 16)
	inc := r.MustRegisterTask("inc", incrementTask)
	for round := 0; round < 4; round++ {
		if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	sum, err := region.SumF64(tree.Root(), fieldVal)
	if err != nil {
		t.Fatal(err)
	}
	return sum, r.Stats()
}

// The chaos property: for any seeded chaos schedule that admits eventual
// delivery, results and Stats-visible task counts are identical to the
// fault-free run — the transport's retransmission and dedup machinery is
// invisible to the program.
func TestChaosPropertyResultsMatchFaultFree(t *testing.T) {
	refSum, refSt := chaosRun(t, nil, nil, nil)
	for _, seed := range envSeeds(t, "CHAOS_SEEDS", chaosSeeds) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			plan := &xport.ChaosPlan{
				Seed: seed, Drop: 0.15, Dup: 0.2, Reorder: 0.3,
				DelayMax: 100 * time.Microsecond,
				Partitions: []xport.Partition{
					{A: 0, B: 2, AfterSends: 1, Sends: 3},
				},
			}
			sum, st := chaosRun(t, plan, nil, nil)
			if sum != refSum {
				t.Errorf("seed %d: sum = %v, fault-free = %v", seed, sum, refSum)
			}
			if st.TasksExecuted != refSt.TasksExecuted || st.TasksFailed != refSt.TasksFailed ||
				st.TasksSkipped != refSt.TasksSkipped || st.IndexLaunched != refSt.IndexLaunched {
				t.Errorf("seed %d: task counts diverged:\nchaos:      %+v\nfault-free: %+v", seed, st, refSt)
			}
			if st.MsgSends == 0 {
				t.Error("centralized run shipped no slices through the transport")
			}
			// A repeat of the same seed delivers the same results and task
			// counts. (Transport counters may differ: how many retransmit
			// timers fire before an ack lands is a wall-clock race — only
			// the delivered outcome is guaranteed deterministic.)
			sum2, st2 := chaosRun(t, plan, nil, nil)
			if sum2 != refSum || st2.TasksExecuted != refSt.TasksExecuted {
				t.Errorf("seed %d: repeat run diverged: sum %v tasks %d", seed, sum2, st2.TasksExecuted)
			}
		})
	}
}

// The acceptance scenario of ISSUE 3: >= 10% per-link drop plus one
// interior-node kill on an 8-node centralized run. Every launch completes
// identically to the fault-free run, the transport counters show the
// machinery actually engaged, and the profile timeline carries the new
// communication stages.
func TestChaosWithInteriorKillAcceptance(t *testing.T) {
	refSum, refSt := chaosRun(t, nil, nil, nil)

	plan := &xport.ChaosPlan{
		Seed: 42, Drop: 0.15, Dup: 0.25, Reorder: 0.3,
		DelayMax:   100 * time.Microsecond,
		Partitions: []xport.Partition{{A: 0, B: 2, AfterSends: 1, Sends: 3}},
	}
	// Node 1 is an interior relay (children 3 and 4); killing it after 20
	// issued points — mid-way through the second launch — forces the later
	// broadcasts to re-parent its subtree.
	prof := obs.NewRecorder("rt", 8, 4096)
	sum, st := chaosRun(t, plan, NewFaultInjector(42).KillNode(1, 20), prof)

	if sum != refSum {
		t.Errorf("degraded chaos sum = %v, fault-free = %v", sum, refSum)
	}
	if st.TasksExecuted != refSt.TasksExecuted {
		t.Errorf("tasks executed = %d, fault-free = %d", st.TasksExecuted, refSt.TasksExecuted)
	}
	if st.NodeFailures != 1 {
		t.Errorf("node failures = %d, want 1", st.NodeFailures)
	}
	if st.MsgRetransmits == 0 || st.MsgDedups == 0 || st.Reparents == 0 {
		t.Errorf("robustness machinery idle: retransmits=%d dedups=%d reparents=%d",
			st.MsgRetransmits, st.MsgDedups, st.Reparents)
	}
	if st.MsgDrops == 0 {
		t.Errorf("15%% drop plan lost nothing: %+v", st)
	}

	// The timeline shows the communication stages.
	p := prof.Snapshot()
	stages := map[obs.Stage]int{}
	for _, ev := range p.Events {
		stages[ev.Stage]++
	}
	for _, st := range []obs.Stage{obs.StageSend, obs.StageRecv, obs.StageRetransmit} {
		if stages[st] == 0 {
			t.Errorf("profile has no %v events: %v", st, stages)
		}
	}
}

// Chaos rides on a Transport, which only the centralized path uses: a
// chaos-wrapped transport is refused with DCR on, and a plan that can never
// deliver is refused when the transport is built, not at first broadcast.
func TestChaosRequiresCentralizedPath(t *testing.T) {
	xp, err := xport.New(2, xport.Options{Chaos: &xport.ChaosPlan{Seed: 1, Drop: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = xp.Close() })
	_, err = New(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, Transport: xp})
	if err == nil || !strings.Contains(err.Error(), "DCR") {
		t.Errorf("New accepted a chaos transport with DCR: err = %v", err)
	}
	if bad, err := xport.New(2, xport.Options{Chaos: &xport.ChaosPlan{Drop: 1.0}}); err == nil {
		_ = bad.Close()
		t.Error("xport.New accepted a Drop=1 plan that can never deliver")
	}
}

// KillNode landing mid-slice on the centralized path: slices already
// shipped to the victim drain, later points re-map, and the result matches
// the fault-free run.
func TestKillNodeMidSliceCentralized(t *testing.T) {
	run := func(fi *FaultInjector) (float64, Stats) {
		r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true, Fault: fi})
		tree, part := lineSetup(t, 160, 16)
		inc := r.MustRegisterTask("inc", incrementTask)
		for round := 0; round < 3; round++ {
			if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.FenceErr(); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		sum, err := region.SumF64(tree.Root(), fieldVal)
		if err != nil {
			t.Fatal(err)
		}
		return sum, r.Stats()
	}
	ref, _ := run(nil)
	// The kill threshold lands on the 6th of 16 points — mid-slice within
	// the first launch, after its slices were already broadcast.
	sum, st := run(NewFaultInjector(3).KillNode(2, 6))
	if sum != ref {
		t.Errorf("mid-slice kill sum = %v, fault-free = %v", sum, ref)
	}
	if st.NodeFailures != 1 {
		t.Errorf("node failures = %d, want 1", st.NodeFailures)
	}
	// Node 2 owns 4 of 16 points per launch: its points in launches 2 and
	// 3 re-map (launch 1's were issued before or accepted by the draining
	// node).
	if st.Remapped == 0 {
		t.Error("mid-slice kill re-mapped no points")
	}
}

// FenceContext cancellation while a kill-triggered remap storm is in
// flight: the fence returns promptly with a descriptive error, the
// unfinished tasks stay fence-able, and the released run completes with
// fault-free results.
func TestFenceContextCancelDuringRemapStorm(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true,
		Fault: NewFaultInjector(11).KillNode(1, 10).KillNode(2, 30)})
	tree, part := lineSetup(t, 160, 16)
	release := make(chan struct{})
	gated := r.MustRegisterTask("gated", func(ctx *Context) ([]byte, error) {
		<-release
		return incrementTask(ctx)
	})
	// Three launches with two kills landing mid-stream: most of the 48
	// points re-map or queue behind the gate.
	for round := 0; round < 3; round++ {
		if _, err := r.ExecuteIndex(core.MustForall("gated", gated, domain.Range1(0, 15), identityRW(part))); err != nil {
			t.Fatal(err)
		}
	}
	err := r.FenceTimeout(10 * time.Millisecond)
	if err == nil {
		t.Fatal("FenceContext under a gated remap storm returned nil")
	}
	if !strings.Contains(err.Error(), "unfinished") {
		t.Errorf("cancellation error not descriptive: %v", err)
	}

	close(release)
	if err := r.FenceErr(); err != nil {
		t.Fatalf("fence after release: %v", err)
	}
	sum, _ := region.SumF64(tree.Root(), fieldVal)
	if sum != 3*160 {
		t.Errorf("sum = %v, want %v", sum, 3*160)
	}
	st := r.Stats()
	if st.NodeFailures != 2 || st.Remapped == 0 {
		t.Errorf("kills = %d remapped = %d, want 2 kills and nonzero remaps", st.NodeFailures, st.Remapped)
	}
}

// Shutdown cancels a retry backoff in flight: a task sleeping out a long
// ladder fails immediately instead of holding the fence for the rest of
// the wait.
func TestShutdownCancelsRetryBackoff(t *testing.T) {
	r := MustNew(Config{
		Nodes: 1, ProcsPerNode: 1,
		Retry: RetryPolicy{Max: 3, Backoff: time.Hour, MaxBackoff: time.Hour},
	})
	always := r.MustRegisterTask("always-fails", func(ctx *Context) ([]byte, error) {
		return nil, errTransient
	})
	fut, err := r.ExecuteSingle("doomed", always, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the first attempt time to fail and enter its hour-long backoff.
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	r.Shutdown()
	if _, err := fut.Get(); err == nil {
		t.Error("cancelled retry ladder returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Shutdown took %v to cancel the backoff", elapsed)
	}
	r.Shutdown() // idempotent
}
