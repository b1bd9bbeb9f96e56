package sched

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/trace"
)

// End-to-end tracing tests: a traced scheduler run must assemble, for a
// retained job, one span tree crossing all three layers — sched admission,
// the executor runtime's launch pipeline, and the transport's hops — and
// that tree must be reproducible per seed and survive a restart through the
// durable store.

// tracedCfg wires a tracer + recorder + registry into a single-executor
// scheduler.
func tracedCfg(t *testing.T, tcfg trace.Config) (Config, *trace.Tracer) {
	t.Helper()
	tr, err := trace.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietCfg()
	cfg.Executors = 1
	cfg.Metrics = metrics.NewRegistry()
	cfg.Profile = obs.NewRecorder("sched", 4, 1<<14)
	cfg.Trace = tr
	return cfg, tr
}

// waitTrace polls for the job's retained trace: Finish runs under the
// scheduler mutex just after the job's done channel closes, so Wait can
// return a beat before the trace is queryable.
func waitTrace(t *testing.T, tr *trace.Tracer, id JobID) *trace.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := tr.Get(strconv.FormatInt(int64(id), 10)); ok {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d trace never retained", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTraceEndToEndCrossesAllLayers(t *testing.T) {
	cfg, tr := tracedCfg(t, trace.Config{})
	s := MustNew(cfg)
	// A 1ns cutoff in place of the live p99 makes every job a "slow" retain.
	tr.SetSlowThreshold(func() int64 { return 1 })
	defer s.Shutdown()

	id, err := s.Submit(JobSpec{Tenant: "acme", Run: SyntheticRun(16, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	got := waitTrace(t, tr, id)
	if got.Why != "slow" {
		t.Fatalf("retained why=%q, want slow", got.Why)
	}
	if got.Tenant != "acme" {
		t.Fatalf("tenant %q", got.Tenant)
	}
	stages := got.Stages()
	has := func(name string) bool {
		for _, st := range stages {
			if st == name {
				return true
			}
		}
		return false
	}
	// The acceptance contract: at least one span from each layer — sched
	// (enqueue/admit), rt (issue/execute), xport (send/recv) — plus the
	// synthesized job root.
	for _, want := range []string{"job", "enqueue", "admit", "issue", "execute", "send", "recv"} {
		if !has(want) {
			t.Errorf("trace missing %s span; stages = %v", want, stages)
		}
	}
	// Every span belongs to this job's trace and descends (transitively)
	// from the root: the tree has exactly one root.
	if roots := trace.Tree(got.Spans); len(roots) != 1 {
		t.Errorf("trace has %d roots, want 1 (job)", len(roots))
	}
	// Two rounds of 16 tasks: the launch-granularity reduction sees both.
	ls := trace.LaunchShape(got.Spans)
	if strings.Count(ls, "issue:"+SyntheticTaskName+" execute=16") != 2 {
		t.Errorf("launch shape:\n%s", ls)
	}

	// The job's Status surfaces the tracing panel and the drop counter.
	st := s.Status()
	if st.Tracing == nil || st.Tracing.Retained != 1 {
		t.Errorf("Status.Tracing = %+v, want 1 retained", st.Tracing)
	}

	// /trace/{id} serves the same payload over HTTP.
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/trace/" + strconv.FormatInt(int64(id), 10))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), got.TraceID) {
		t.Fatalf("GET /trace/%d = %d: %s", id, resp.StatusCode, body)
	}
}

// TestTraceGoldenSpanTree is the golden determinism check the CI seed
// matrix runs: for every SCHED_SEEDS entry, two schedulers with the same
// trace seed running the same job sequence produce identical canonical
// span-tree shapes.
func TestTraceGoldenSpanTree(t *testing.T) {
	for _, s := range schedSeeds(t) {
		goldenSpanTree(t, uint64(s))
	}
}

func goldenSpanTree(t *testing.T, seed uint64) {
	run := func() []string {
		cfg, tr := tracedCfg(t, trace.Config{HeadRate: 1})
		cfg.TraceSeed = seed
		s := MustNew(cfg)
		defer s.Shutdown()
		var shapes []string
		for i := 0; i < 3; i++ {
			id, err := s.Submit(JobSpec{Tenant: "a", Run: SyntheticRun(8, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(id); err != nil {
				t.Fatal(err)
			}
			got := waitTrace(t, tr, id)
			shapes = append(shapes, trace.Shape(stableSpans(got.Spans)))
		}
		return shapes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] == "" || !strings.Contains(a[i], "admit") {
			t.Fatalf("job %d shape degenerate: %q", i+1, a[i])
		}
		if a[i] != b[i] {
			t.Errorf("job %d span tree not reproducible for seed %d:\n  run1: %s\n  run2: %s",
				i+1, seed, a[i], b[i])
		}
	}
}

// stableSpans drops the timing-dependent marks (ack-timeout retransmits)
// whose presence varies with machine load; everything else in the tree is
// a pure function of (seed, job ID, launch sequence).
func stableSpans(spans []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(spans))
	for _, ev := range spans {
		if ev.Stage == obs.StageRetransmit {
			continue
		}
		out = append(out, ev)
	}
	return out
}

func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg, tr := tracedCfg(t, trace.Config{Dir: dir})
	s := MustNew(cfg)
	// A 1ns cutoff in place of the live p99 makes every job a "slow" retain.
	tr.SetSlowThreshold(func() int64 { return 1 })
	id, err := s.Submit(JobSpec{Tenant: "a", Run: SyntheticRun(8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	fid, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { return errors.New("boom") }})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(fid); err == nil {
		t.Fatal("failing job succeeded")
	}
	before := waitTrace(t, tr, id)
	waitTrace(t, tr, fid)
	s.Shutdown()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh tracer over the same directory — the restart — recovers both
	// traces byte-for-byte equal in the fields that matter.
	re, err := trace.New(trace.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ok := re.Get(strconv.FormatInt(int64(id), 10))
	if !ok {
		t.Fatal("slow trace lost across restart")
	}
	if got.TraceID != before.TraceID || got.Why != before.Why || len(got.Spans) != len(before.Spans) {
		t.Fatalf("trace mangled across restart:\n  before: %s %s %d spans\n  after:  %s %s %d spans",
			before.TraceID, before.Why, len(before.Spans), got.TraceID, got.Why, len(got.Spans))
	}
	failed, ok := re.Get(strconv.FormatInt(int64(fid), 10))
	if !ok || failed.Why != "failed" || failed.Err == "" {
		t.Fatalf("failed trace lost or mangled across restart: %+v, %v", failed, ok)
	}
}

// A sink-only recorder keeps no rings, yet loses no span a trace needs:
// the same traced jobs run once through a ringed recorder and once through
// a sink-only one give identical span trees per job, each with one
// physical and one execute span per point, on the DCR and the centralized
// path. The sink-only recorder drops nothing, snapshots empty and keeps no
// dependence edges.
func TestSinkOnlyRecorderLosesNothing(t *testing.T) {
	const tasks, rounds, jobs = 16, 3, 3
	for _, dcr := range []bool{true, false} {
		run := func(sinkOnly bool) ([]string, *obs.Recorder, *Scheduler) {
			cfg, tr := tracedCfg(t, trace.Config{HeadRate: 1})
			cfg.TraceSeed = 9
			cfg.Runtime = rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: dcr, IndexLaunches: true}
			if sinkOnly {
				cfg.Profile = obs.NewSinkRecorder("sched")
			}
			s := MustNew(cfg)
			t.Cleanup(s.Shutdown)
			var shapes []string
			for i := 0; i < jobs; i++ {
				id, err := s.Submit(JobSpec{Tenant: "a", Run: SyntheticRun(tasks, rounds)})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Wait(id); err != nil {
					t.Fatal(err)
				}
				spans := stableSpans(waitTrace(t, tr, id).Spans)
				per := map[obs.Stage]int{}
				for _, ev := range spans {
					if ev.Task == SyntheticTaskName && ev.Point.Dim > 0 {
						per[ev.Stage]++
					}
				}
				if per[obs.StagePhysical] != tasks*rounds || per[obs.StageExecute] != tasks*rounds {
					t.Errorf("dcr=%v sinkOnly=%v job %d: %d physical and %d execute point spans, want %d each",
						dcr, sinkOnly, i+1, per[obs.StagePhysical], per[obs.StageExecute], tasks*rounds)
				}
				shapes = append(shapes, trace.Shape(spans))
			}
			return shapes, cfg.Profile, s
		}
		ringed, _, _ := run(false)
		sinkOnly, rec, s := run(true)
		for i := range ringed {
			if ringed[i] != sinkOnly[i] {
				t.Errorf("dcr=%v job %d: span trees differ:\n  ringed:    %s\n  sink-only: %s", dcr, i+1, ringed[i], sinkOnly[i])
			}
		}
		dropped := -1.0
		for _, sc := range s.cfg.Metrics.Gather().Scalars() {
			if sc.Name == "obs_dropped_events" {
				dropped = sc.Value
			}
		}
		if dropped != 0 || s.Status().ObsDroppedEvents != 0 {
			t.Errorf("dcr=%v: obs_dropped_events = %v, status %d; want 0", dcr, dropped, s.Status().ObsDroppedEvents)
		}
		rec.Edge(1, 2)
		if p := rec.Snapshot(); len(p.Events) != 0 || len(p.Edges) != 0 || p.Dropped != 0 {
			t.Errorf("dcr=%v: sink-only snapshot holds %d events, %d edges, %d dropped; want none",
				dcr, len(p.Events), len(p.Edges), p.Dropped)
		}
	}
}
