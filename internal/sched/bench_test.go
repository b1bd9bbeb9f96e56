package sched

import (
	"fmt"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/trace"
)

// Scheduler overhead benchmarks: the state machine's per-decision cost, the
// virtual-time driver's whole-trace cost (BENCH_sched.json), the tracing
// layer's cost per task (BENCH_trace.json), the live front end's
// submit-to-completion round trip, and a traced job end to end. CI's smoke
// pass runs these with -benchtime=1x, so allocation regressions surface as
// allocs/op.

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

// BenchmarkSched runs the virtual-time driver over a seeded 2000-job trace
// per discipline and seed. jobs/ktick, p99_wait_ticks and makespan_ticks
// are functions of the seed alone, so they must match BENCH_sched.json
// exactly (TestBenchDiffPipeline). ns/op and allocs/op time the driver.
func BenchmarkSched(b *testing.B) {
	weights := map[string]int{"a": 1, "b": 2, "c": 4}
	adm := Admission{
		MaxQueued: 4096,
		Tenants:   map[string]Quota{"a": {Weight: 1}, "b": {Weight: 2}, "c": {Weight: 4}},
	}
	disciplines := []struct {
		name string
		mk   func() Queue
	}{
		{"fifo", NewFIFO},
		{"priority", NewStrictPriority},
		{"fair", func() Queue { return NewWeightedFair(1, weights, 1) }},
	}
	for _, d := range disciplines {
		b.Run(d.name, func(b *testing.B) {
			for _, seed := range []int64{1, 7, 42} {
				tr := GenTrace(seed, TraceOptions{Jobs: 2000, MaxPriority: 3, MaxInterArrival: 1,
					MaxCost: 3, MinService: 1, MaxService: 6})
				b.Run(fmt.Sprintf("seed%d", seed), func(b *testing.B) {
					b.ReportAllocs()
					var res TraceResult
					for i := 0; i < b.N; i++ {
						res = RunTrace(tr, TraceConfig{Executors: 4, Queue: d.mk(), Admission: adm})
						if res.Makespan == 0 {
							b.Fatal("empty run")
						}
					}
					b.ReportMetric(res.JobsPerKTick, "jobs/ktick")
					b.ReportMetric(float64(res.P99Wait()), "p99_wait_ticks")
					b.ReportMetric(float64(res.Makespan), "makespan_ticks")
				})
			}
		})
	}
}

// BenchmarkTrace is the tracing layer's marginal cost on the runtime's
// launch pipeline (BENCH_trace.json, wall clock). Each op runs the same
// 256-point x 40-round workload on a bare runtime twice, with the profiler
// alone and with the profiler plus tracing, whose every span carries a
// derived context and is teed into the tail sampler. The two alternate
// which runs first, so slow drift is charged to neither.
func BenchmarkTrace(b *testing.B) {
	var took [2]time.Duration // untraced, traced
	for i := 0; i < b.N; i++ {
		first := i % 2
		took[first] += tracedLaunches(b, first == 1)
		took[1-first] += tracedLaunches(b, first == 0)
	}
	off, on := perTask(b, took[0]), perTask(b, took[1])
	b.ReportMetric(off, "off_ns/task")
	b.ReportMetric(on, "on_ns/task")
	b.ReportMetric((on/off-1)*100, "overhead_pct")
}

func perTask(b *testing.B, d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(b.N*traceBenchPoints*traceBenchRounds)
}

const traceBenchPoints, traceBenchRounds = 256, 40

// tracedLaunches times BenchmarkTrace's launches on a fresh 4x2 runtime.
// Both modes record with the profiler, since span stamping only happens on
// a profiled pipeline; traced adds what the tracing layer adds.
func tracedLaunches(b *testing.B, traced bool) time.Duration {
	rec := obs.NewRecorder("bench", 4, 4096)
	var tr *trace.Tracer
	var root obs.TraceRef
	if traced {
		var err error
		if tr, err = trace.New(trace.Config{HeadRate: 1, MaxRetained: 4}); err != nil {
			b.Fatal(err)
		}
		rec.SetSink(tr.Sink())
		root = obs.NewTraceRef(42)
		tr.Begin(root, 1, "bench", 0)
	}
	r, err := rt.New(rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true, Profile: rec})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Shutdown()
	if err := syntheticSetup(r); err != nil {
		b.Fatal(err)
	}
	id, _ := r.TaskNamed(SyntheticTaskName)
	if traced {
		r.SetTraceRef(root.Child(1))
	}
	start := time.Now()
	for round := 0; round < traceBenchRounds; round++ {
		launch, err := core.Forall(SyntheticTaskName, id, domain.Range1(0, traceBenchPoints-1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ExecuteIndex(launch); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.FenceErr(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	if traced {
		tr.Finish(root, int64(elapsed), trace.Outcome{})
	}
	return elapsed
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
