package sched

import (
	"testing"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/trace"
)

// Scheduler overhead benchmarks: the state machine's per-decision cost, the
// virtual-time driver's whole-trace cost, the live front end's
// submit-to-completion round trip, and a traced job end to end. CI's smoke pass runs these with
// -benchtime=1x, so allocation regressions surface as allocs/op.

func BenchmarkPolicySubmitDispatch(b *testing.B) {
	st := newState(NewWeightedFair(1, map[string]int{"a": 1, "b": 2}, 1),
		Admission{MaxQueued: 1 << 30}, 4, 0)
	tenants := []string{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := &Job{Spec: JobSpec{Tenant: tenants[i%3]}}
		if fx, _ := st.apply(op{K: opSubmit, Job: JobID(i + 1), job: j}); fx.reject != nil {
			b.Fatal(fx.reject)
		}
		fx, _ := st.apply(op{K: opDispatch})
		if fx.dispatched == nil {
			b.Fatal("dispatch returned nil with queued work")
		}
		st.apply(op{K: opComplete, Job: fx.dispatched.ID})
		if i%16 == 0 {
			st.apply(op{K: opAdvance})
		}
	}
}

func BenchmarkRunTrace(b *testing.B) {
	tr := GenTrace(42, TraceOptions{Jobs: 2000, MaxPriority: 3, MaxInterArrival: 1,
		MaxCost: 3, MinService: 1, MaxService: 6})
	weights := map[string]int{"a": 1, "b": 2, "c": 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := RunTrace(tr, TraceConfig{Executors: 4, Queue: NewWeightedFair(1, weights, 1)})
		if res.Makespan == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkLiveSubmitWait(b *testing.B) {
	s := MustNew(Config{Executors: 2, TickEvery: time.Hour})
	defer s.Shutdown()
	run := func(*JobContext, *rt.Runtime) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := s.Submit(JobSpec{Tenant: "bench", Run: run})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Wait(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedJob is the in-process shape of idxload's serve.traced
// workload: idxserve -dcr -trace-sample 1's executors and runtimes, one
// SyntheticRun(64, 4) job per op, every job traced and retained.
func BenchmarkTracedJob(b *testing.B) {
	reg := metrics.NewRegistry()
	tr, err := trace.New(trace.Config{HeadRate: 1, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	s := MustNew(Config{
		Executors: 2,
		Runtime:   rt.Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: true},
		TickEvery: time.Hour,
		Metrics:   reg,
		Profile:   obs.NewRecorder("bench", 4, 4096),
		Trace:     tr,
	})
	defer s.Shutdown()
	run := SyntheticRun(64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := s.Submit(JobSpec{Tenant: "bench", Run: run})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Wait(id); err != nil {
			b.Fatal(err)
		}
	}
}
