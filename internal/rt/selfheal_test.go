package rt

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/health"
	"indexlaunch/internal/region"
	"indexlaunch/internal/xport"
)

// testHeartbeat is the policy the self-heal tests run under: one detector
// round every 4 issued points, single-attempt probes so partitions starve
// heartbeats immediately.
var testHeartbeat = HeartbeatPolicy{Every: 4, ProbeAttempts: 1}

// selfHealRun executes the reference workload — six index launches of 16
// points over a 160-element line on an 8-node centralized runtime — under
// the given chaos plan, with the failure detector on, and returns the field
// sum, the stats and the rendered detector log. No node is ever killed
// explicitly: any liveness transitions come from the detector observing the
// plan's effect on heartbeat probes.
func selfHealRun(t *testing.T, plan *xport.ChaosPlan) (float64, Stats, string) {
	t.Helper()
	r := MustNew(Config{
		Nodes: 8, ProcsPerNode: 2, IndexLaunches: true,
		Chaos: plan, Retransmit: fastRetransmit,
		Heartbeat: testHeartbeat,
	})
	defer r.Shutdown()
	tree, part := lineSetup(t, 160, 16)
	inc := r.MustRegisterTask("inc", incrementTask)
	for round := 0; round < 6; round++ {
		if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		t.Fatalf("self-heal run failed: %v", err)
	}
	sum, err := region.SumF64(tree.Root(), fieldVal)
	if err != nil {
		t.Fatal(err)
	}
	return sum, r.Stats(), health.RenderLog(r.HealthLog())
}

// selfHealPlan partitions the 0<->1 link for a window of probe traffic: the
// detector must notice node 1 (and the subtree it relays for) going silent,
// quarantine it when the window heals, and readmit it — all without any
// KillNode call.
func selfHealPlan(seed int64) *xport.ChaosPlan {
	return &xport.ChaosPlan{
		Seed:       seed,
		Partitions: []xport.Partition{{A: 0, B: 1, AfterSends: 0, Sends: 16}},
	}
}

// The tentpole's end-to-end property: with the detector enabled and no
// external kill, a chaos partition causes suspect → re-map → heal →
// quarantine → rejoin, and the program's results are identical to the
// fault-free run.
func TestSelfHealPartitionSuspectRejoin(t *testing.T) {
	refSum, refSt, refLog := selfHealRun(t, nil)
	if refLog != "" {
		t.Fatalf("fault-free run produced health transitions:\n%s", refLog)
	}
	if refSt.HealthProbes == 0 {
		t.Fatal("fault-free run sent no heartbeat probes")
	}

	sum, st, log := selfHealRun(t, selfHealPlan(3))
	if sum != refSum {
		t.Errorf("partitioned run sum = %v, fault-free = %v", sum, refSum)
	}
	if st.TasksExecuted != refSt.TasksExecuted {
		t.Errorf("tasks executed = %d, fault-free = %d", st.TasksExecuted, refSt.TasksExecuted)
	}
	if st.HealthSuspects == 0 {
		t.Errorf("partition produced no suspects; log:\n%s", log)
	}
	if st.HealthRejoins == 0 {
		t.Errorf("healed partition produced no rejoins; log:\n%s", log)
	}
	if st.Remapped == 0 {
		t.Error("no points were re-mapped off the suspected node")
	}
	if st.NodeFailures != 0 {
		t.Errorf("NodeFailures = %d: nothing was killed, only detected", st.NodeFailures)
	}
	if !strings.Contains(log, "n1 alive>suspect") {
		t.Errorf("node 1 was never suspected; log:\n%s", log)
	}
	if !strings.Contains(log, "n1 quarantined>alive") {
		t.Errorf("node 1 never rejoined; log:\n%s", log)
	}
}

// Detector determinism (satellite): the same seed and chaos plan produce a
// byte-identical suspect/rejoin event sequence on every run. The Chaos name
// prefix keeps this test in CI's seed-matrix runs.
func TestChaosSelfHealDeterministicLog(t *testing.T) {
	for _, seed := range envSeeds(t, "CHAOS_SEEDS", chaosSeeds) {
		seed := seed
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			_, _, first := selfHealRun(t, selfHealPlan(seed))
			if first == "" {
				t.Fatal("plan produced no health transitions; schedule too weak")
			}
			for i := 0; i < 4; i++ {
				_, _, log := selfHealRun(t, selfHealPlan(seed))
				if log != first {
					t.Fatalf("run %d transition log differs.\nfirst:\n%s\ngot:\n%s", i+2, first, log)
				}
			}
		})
	}
}

// An injector kill under the detector is kill-as-silence: the node stops
// heartbeating, the detector suspects it, and an injector revive brings it
// back through quarantine — on the DCR path, whose probe-only transport
// exists solely for the heartbeats.
func TestDetectorKillSilenceAndInjectedRevive(t *testing.T) {
	fi := NewFaultInjector(1).KillNode(3, 8).ReviveNode(3, 60)
	r := MustNew(Config{
		Nodes: 8, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
		Heartbeat: testHeartbeat, Fault: fi,
	})
	defer r.Shutdown()
	tree, part := lineSetup(t, 160, 16)
	inc := r.MustRegisterTask("inc", incrementTask)
	for round := 0; round < 8; round++ {
		if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		t.Fatal(err)
	}
	sum, err := region.SumF64(tree.Root(), fieldVal)
	if err != nil {
		t.Fatal(err)
	}
	if want := 160.0 * 8; sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
	st := r.Stats()
	if st.NodeFailures != 1 {
		t.Errorf("NodeFailures = %d, want 1 (the silenced kill)", st.NodeFailures)
	}
	if st.HealthSuspects == 0 || st.HealthRejoins == 0 {
		t.Errorf("suspects = %d, rejoins = %d; want both > 0; log:\n%s",
			st.HealthSuspects, st.HealthRejoins, health.RenderLog(r.HealthLog()))
	}
	if c := r.HealthCounts(); c.Alive != 8 {
		t.Errorf("final health = %v, want all 8 alive", c)
	}
	if got := len(r.AliveNodes()); got != 8 {
		t.Errorf("alive nodes = %d, want 8", got)
	}
	status := r.Status()
	if len(status.Health) != 8 || status.ResyncEpoch == 0 {
		t.Errorf("status health rows = %d, resync epoch = %d; want 8 rows, epoch > 0",
			len(status.Health), status.ResyncEpoch)
	}
}

// Without a detector, ReviveNode readmits a killed node immediately.
func TestReviveNodeDirectWithoutDetector(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	if !r.KillNode(2) {
		t.Fatal("KillNode(2) refused")
	}
	if got := len(r.AliveNodes()); got != 3 {
		t.Fatalf("alive = %d after kill, want 3", got)
	}
	if r.ReviveNode(2) != true {
		t.Fatal("ReviveNode(2) refused")
	}
	if r.ReviveNode(2) {
		t.Fatal("double revive should report false")
	}
	if got := len(r.AliveNodes()); got != 4 {
		t.Fatalf("alive = %d after revive, want 4", got)
	}
}

// Satellite: a fence abandoned by Shutdown fails with ErrShutdown (not a
// generic deadline error) and names the unfinished task plus the liveness
// snapshot.
func TestShutdownDuringFenceReturnsErrShutdown(t *testing.T) {
	r := MustNew(Config{Nodes: 2, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	if _, err := r.ExecuteSingle("hang-launch", hang, nil, nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		r.Shutdown()
	}()
	start := time.Now()
	err := r.FenceTimeout(30 * time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fence returned only after %v; Shutdown did not cancel the wait", elapsed)
	}
	if !errors.Is(err, ErrShutdown) {
		t.Fatalf("fence error = %v, want ErrShutdown", err)
	}
	for _, want := range []string{"unfinished", `task "hang"`, `launch "hang-launch"`, "liveness:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fence error %q missing %q", err, want)
		}
	}
	r.Shutdown() // double Shutdown is a no-op
}

// Satellite: fence timeout errors embed the node-liveness snapshot.
func TestFenceTimeoutIncludesLiveness(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 1, DCR: true, IndexLaunches: true})
	defer r.Shutdown()
	release := make(chan struct{})
	hang := r.MustRegisterTask("hang", func(ctx *Context) ([]byte, error) {
		<-release
		return nil, nil
	})
	defer close(release)
	if _, err := r.ExecuteSingle("hang-launch", hang, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.KillNode(3)
	err := r.FenceTimeout(30 * time.Millisecond)
	if err == nil {
		t.Fatal("fence with a hung task returned nil")
	}
	if !strings.Contains(err.Error(), "liveness: 3 alive, 0 suspect, 1 dead") {
		t.Errorf("fence error %q missing liveness snapshot", err)
	}
}

// Satellite: Shutdown racing in-flight heartbeat rounds (and the rejoins
// they trigger) must be clean — run under -race.
func TestShutdownRacesHeartbeatRounds(t *testing.T) {
	for i := 0; i < 5; i++ {
		fi := NewFaultInjector(7).KillNode(2, 4).ReviveNode(2, 24)
		r := MustNew(Config{
			Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true,
			Heartbeat: HeartbeatPolicy{Every: 2}, Fault: fi,
		})
		_, part := lineSetup(t, 64, 16)
		inc := r.MustRegisterTask("inc", incrementTask)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for round := 0; round < 6; round++ {
				if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
					t.Error(err)
					return
				}
			}
			r.Fence()
		}()
		time.Sleep(time.Duration(i) * time.Millisecond)
		r.Shutdown()
		r.Shutdown()
		<-done
	}
}
