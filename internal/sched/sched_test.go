package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/xport"
)

// Live-scheduler tests: the concurrent front end over the scheduler state —
// executor pool, backpressure, drain/shutdown, preemption, capacity
// feedback, and the HTTP API end to end.

// quietCfg is a scheduler whose tick loop effectively never fires, so tests
// control capacity and bucket refill deterministically.
func quietCfg() Config {
	return Config{Executors: 2, TickEvery: time.Hour}
}

// A caller-built transport is one node 0: executors built from the same
// template would share it, and one's Recycle would strand another's frames.
// New takes it for one executor only.
func TestSchedTransportServesOneExecutor(t *testing.T) {
	xp, err := xport.New(4, xport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer xp.Close()
	cfg := quietCfg()
	cfg.Runtime = rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true, Transport: xp}
	for _, n := range []int{0, 2} { // 0 defaults to 2
		cfg.Executors = n
		if s, err := New(cfg); err == nil {
			s.Shutdown()
			t.Fatalf("Executors = %d sharing one Transport accepted", n)
		}
	}
	cfg.Executors = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("one executor over a Transport rejected: %v", err)
	}
	s.Shutdown()
}

func TestSchedRunsJobs(t *testing.T) {
	s := MustNew(quietCfg())
	defer s.Shutdown()
	var ran atomic.Int64
	var ids []JobID
	for i := 0; i < 20; i++ {
		id, err := s.Submit(JobSpec{
			Tenant: []string{"a", "b"}[i%2],
			Run: func(jc *JobContext, _ *rt.Runtime) error {
				ran.Add(1)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
	}
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d jobs, want 20", got)
	}
	st := s.Status()
	var comp int64
	for _, ts := range st.Tenants {
		comp += ts.Completed
	}
	if comp != 20 || st.QueueDepth != 0 || st.Running != 0 {
		t.Fatalf("status = %+v, want 20 completed, idle", st)
	}
	info, ok := s.Job(ids[0])
	if !ok || info.State != "done" {
		t.Fatalf("Job(%d) = %+v, %v", ids[0], info, ok)
	}
}

func TestSchedJobErrorPropagates(t *testing.T) {
	s := MustNew(quietCfg())
	defer s.Shutdown()
	boom := errors.New("boom")
	id, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(id); !errors.Is(got, boom) {
		t.Fatalf("Wait = %v, want boom", got)
	}
	pid, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { panic("eek") }})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Wait(pid); got == nil || !strings.Contains(got.Error(), "panicked") {
		t.Fatalf("Wait after panic = %v, want panic error", got)
	}
}

// blockingJobs fills every executor with jobs that hold until release is
// closed, returning their IDs. Each job is observed to have started (and so
// to have left the queue) before the next is submitted, so queue-depth
// assertions afterwards are race-free.
func blockingJobs(t *testing.T, s *Scheduler, n int, release chan struct{}) []JobID {
	t.Helper()
	started := make(chan struct{})
	var ids []JobID
	for i := 0; i < n; i++ {
		id, err := s.Submit(JobSpec{Tenant: "blk", Run: func(*JobContext, *rt.Runtime) error {
			started <- struct{}{}
			<-release
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		<-started
	}
	return ids
}

func TestSchedBackpressure(t *testing.T) {
	cfg := quietCfg()
	cfg.Admission = Admission{MaxQueued: 2}
	s := MustNew(cfg)
	defer s.Shutdown()
	release := make(chan struct{})
	ids := blockingJobs(t, s, 2, release) // both executors busy
	// Fill the queue to its bound.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "q", Run: func(*JobContext, *rt.Runtime) error { return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(JobSpec{Tenant: "q", Run: func(*JobContext, *rt.Runtime) error { return nil }})
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("overflow submit = %v, want ErrAdmissionRejected", err)
	}
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("overflow error is %T, want *RejectError", err)
	}
	if rej.Reason != ReasonQueueFull || rej.RetryAfter <= 0 {
		t.Fatalf("rejection = %+v, want queue-full with wall-clock retry hint", rej)
	}
	close(release)
	for _, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSchedTenantQuota(t *testing.T) {
	cfg := quietCfg()
	cfg.Admission = Admission{Tenants: map[string]Quota{"small": {MaxQueued: 1}}}
	s := MustNew(cfg)
	defer s.Shutdown()
	release := make(chan struct{})
	blockingJobs(t, s, 2, release)
	if _, err := s.Submit(JobSpec{Tenant: "small", Run: func(*JobContext, *rt.Runtime) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobSpec{Tenant: "small", Run: func(*JobContext, *rt.Runtime) error { return nil }})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonTenantQueueFull {
		t.Fatalf("tenant overflow = %v, want tenant-queue-full", err)
	}
	close(release)
}

func TestSchedDrain(t *testing.T) {
	s := MustNew(quietCfg())
	var done atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error {
			done.Add(1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != 8 {
		t.Fatalf("drain finished with %d jobs done, want 8", got)
	}
	_, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { return nil }})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonDraining {
		t.Fatalf("submit while draining = %v, want draining rejection", err)
	}
	s.Shutdown()
}

func TestSchedShutdownFailsQueued(t *testing.T) {
	s := MustNew(quietCfg())
	release := make(chan struct{})
	running := blockingJobs(t, s, 2, release)
	var queued []JobID
	for i := 0; i < 3; i++ {
		id, err := s.Submit(JobSpec{Tenant: "q", Run: func(*JobContext, *rt.Runtime) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}
	close(release)
	s.Shutdown()
	for _, id := range running {
		if err := s.Wait(id); err != nil {
			t.Fatalf("running job %d: %v", id, err)
		}
	}
	for _, id := range queued {
		if err := s.Wait(id); !errors.Is(err, ErrSchedulerClosed) {
			t.Fatalf("queued job %d after shutdown: %v, want ErrSchedulerClosed", id, err)
		}
	}
	if _, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { return nil }}); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("submit after shutdown = %v", err)
	}
	s.Shutdown() // idempotent
}

func TestSchedPreemption(t *testing.T) {
	cfg := quietCfg()
	cfg.Executors = 1
	cfg.Preemption = true
	cfg.Queue = NewStrictPriority()
	s := MustNew(cfg)
	defer s.Shutdown()

	lowStarted := make(chan struct{}, 2)
	var hiDone atomic.Bool
	low, err := s.Submit(JobSpec{Tenant: "low", Priority: 0, Run: func(jc *JobContext, _ *rt.Runtime) error {
		if jc.Attempt > 1 {
			// Re-run after preemption: the high-priority job has had the
			// executor; finish immediately.
			return nil
		}
		lowStarted <- struct{}{}
		select {
		case <-jc.Preempted():
			return ErrPreempted
		case <-time.After(10 * time.Second):
			return errors.New("low job never preempted")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-lowStarted
	hi, err := s.Submit(JobSpec{Tenant: "hi", Priority: 5, Run: func(*JobContext, *rt.Runtime) error {
		hiDone.Store(true)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(hi); err != nil {
		t.Fatal(err)
	}
	if !hiDone.Load() {
		t.Fatal("high-priority job did not run before the preempted job finished")
	}
	// The low job re-ran and completed on its second attempt.
	if err := s.Wait(low); err != nil {
		t.Fatalf("preempted job second attempt: %v", err)
	}
	info, _ := s.Job(low)
	if info.Attempts != 2 {
		t.Fatalf("low job attempts = %d, want 2", info.Attempts)
	}
}

func TestSchedCapacityFeedback(t *testing.T) {
	cfg := quietCfg()
	cfg.Admission = Admission{Tenants: map[string]Quota{"rl": {Rate: 1, Burst: 1}}}
	s := MustNew(cfg)
	defer s.Shutdown()
	ok := func(*JobContext, *rt.Runtime) error { return nil }
	if _, err := s.Submit(JobSpec{Tenant: "rl", Run: ok}); err != nil {
		t.Fatal(err)
	}
	// Bucket empty. With capacity zeroed (all nodes dead), the
	// rejection is no-capacity: no retry hint can help.
	s.SetCapacityFactor(0)
	_, err := s.Submit(JobSpec{Tenant: "rl", Run: ok})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonNoCapacity {
		t.Fatalf("zero-capacity submit = %v, want no-capacity", err)
	}
	// Restore capacity: same state now yields rate-limited with a hint.
	s.SetCapacityFactor(1)
	_, err = s.Submit(JobSpec{Tenant: "rl", Run: ok})
	if !errors.As(err, &rej) || rej.Reason != ReasonRateLimited || rej.RetryAfter <= 0 {
		t.Fatalf("full-capacity submit = %v, want rate-limited with hint", err)
	}
	if st := s.Status(); st.CapacityPermille != 1000 {
		t.Fatalf("capacity permille = %d, want 1000", st.CapacityPermille)
	}

	// A factor outside [0, 1] is clamped: /statusz and the
	// sched_capacity_permille gauge read the one value admission uses, and
	// so does a durable scheduler after a restart.
	capacity := func(s *Scheduler, when string) {
		t.Helper()
		if st, g := s.Status().CapacityPermille, s.mx.CapacityPermille.Value(); st != 1000 || g != 1000 {
			t.Fatalf("%s: capacity_permille %d, gauge %d; want 1000 on both", when, st, g)
		}
	}
	s.SetCapacityFactor(1.5)
	capacity(s, "in-memory")
	dir := t.TempDir()
	d := MustNew(durableCfg(dir))
	d.SetCapacityFactor(1.5)
	capacity(d, "durable")
	d.Shutdown()
	d = MustNew(durableCfg(dir))
	defer d.Shutdown()
	capacity(d, "after restart")
}

// TestSchedMetricsAndObs wires a registry and recorder through a live run
// and checks the sched_* families and the new pipeline stages show up.
func TestSchedMetricsAndObs(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := obs.NewRecorder("sched", 1, 4096)
	cfg := quietCfg()
	cfg.Metrics = reg
	cfg.Profile = rec
	s := MustNew(cfg)
	var ids []JobID
	for i := 0; i < 6; i++ {
		id, err := s.Submit(JobSpec{Tenant: "a", Run: func(*JobContext, *rt.Runtime) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s.Shutdown()

	var b strings.Builder
	if err := metrics.WriteProm(&b, reg.Gather()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`sched_enqueued_total{tenant="a"} 6`,
		`sched_admitted_total{tenant="a"} 6`,
		`sched_completed_total{tenant="a"} 6`,
		"sched_drains_total 1",
		"sched_queue_wait_ns_count 6",
		"sched_job_latency_ns_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	stages := map[obs.Stage]int{}
	for _, ev := range rec.Snapshot().Events {
		stages[ev.Stage]++
	}
	if stages[obs.StageEnqueue] != 6 || stages[obs.StageAdmit] != 6 {
		t.Errorf("obs stages = %v, want 6 enqueue + 6 admit", stages)
	}
	if stages[obs.StageDrain] != 1 {
		t.Errorf("obs stages = %v, want 1 drain span", stages)
	}
}

// TestSchedHTTPEndToEnd drives the full stack over HTTP: synthetic jobs on
// real executor runtimes, the 429 backpressure path, /statusz's tenant
// table and /metrics exposition.
func TestSchedHTTPEndToEnd(t *testing.T) {
	cfg := Config{
		Executors: 2,
		TickEvery: time.Millisecond,
		Admission: Admission{MaxQueued: 64},
	}
	s := MustNew(cfg)
	defer s.Shutdown()
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	submit := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL()+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	resp, body := submit(`{"tenant":"acme","tasks":16,"rounds":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil || sr.ID == 0 {
		t.Fatalf("bad submit response %q: %v", body, err)
	}

	// Poll until done.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r2, err := http.Get(fmt.Sprintf("%s/jobs/%d", srv.URL(), sr.ID))
		if err != nil {
			t.Fatal(err)
		}
		var info JobInfo
		err = json.NewDecoder(r2.Body).Decode(&info)
		r2.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.State == "done" {
			break
		}
		if info.State == "failed" {
			t.Fatalf("job failed: %s", info.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unknown kind and bad payloads.
	if resp, _ := submit(`{"kind":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind = %d, want 400", resp.StatusCode)
	}
	if resp, _ := submit(`{`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", resp.StatusCode)
	}

	// /statusz carries the tenant table.
	r3, err := http.Get(srv.URL() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	szBody, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	var sz struct {
		Status Status `json:"status"`
	}
	if err := json.Unmarshal(szBody, &sz); err != nil {
		t.Fatalf("statusz decode: %v (%s)", err, szBody)
	}
	foundTenant := false
	for _, ts := range sz.Status.Tenants {
		if ts.Tenant == "acme" && ts.Completed >= 1 {
			foundTenant = true
		}
	}
	if !foundTenant {
		t.Fatalf("statusz tenant table missing acme: %s", szBody)
	}

	// /metrics carries sched_* and the executor runtimes' idx_* families.
	r4, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(r4.Body)
	r4.Body.Close()
	prom := string(promBody)
	for _, want := range []string{"sched_enqueued_total", "sched_queue_depth", "idx_tasks_executed_total"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// HTTP backpressure: block both executors with a tiny queue bound.
	cfg2 := quietCfg()
	cfg2.Admission = Admission{MaxQueued: 1}
	s2 := MustNew(cfg2)
	defer s2.Shutdown()
	srv2, err := Serve("127.0.0.1:0", s2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	release := make(chan struct{})
	blockingJobs(t, s2, 2, release)
	if _, err := s2.Submit(JobSpec{Tenant: "q", Run: func(*JobContext, *rt.Runtime) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	r5, err := http.Post(srv2.URL()+"/jobs", "application/json", strings.NewReader(`{"tenant":"q","tasks":8}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r5.Body)
	r5.Body.Close()
	if r5.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST = %d, want 429", r5.StatusCode)
	}
	if r5.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	close(release)

	// 404 and 503 paths.
	r6, _ := http.Get(srv.URL() + "/jobs/99999")
	io.Copy(io.Discard, r6.Body)
	r6.Body.Close()
	if r6.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", r6.StatusCode)
	}
}

// TestCentralizedExecutorSurvivesSustainedLoad is the regression test for
// the crash that kept idxserve's default (non-DCR) path out of the
// benchmark: one executor whose runtime — and so its slice transport — is
// reused across jobs via Recycle, two closed-loop submitters, default
// retransmit policy. A 1ms ack timeout firing under load sends a duplicate;
// when that duplicate outlived the job it once reached the next job's
// broadcast state ("sync: negative WaitGroup counter", the process died
// before 2700 jobs in seven of seven runs). Recycle now quiesces the
// transport and generation-stamped frames make any straggler a stale
// duplicate, so the run completes.
func TestCentralizedExecutorSurvivesSustainedLoad(t *testing.T) {
	const submitters, jobsEach = 2, 1500
	s := MustNew(Config{
		Executors: 1,
		Runtime:   rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true},
	})
	defer s.Shutdown()
	errs := make(chan error, submitters)
	for c := 0; c < submitters; c++ {
		go func() {
			for i := 0; i < jobsEach; i++ {
				id, err := s.Submit(JobSpec{Tenant: "load", Run: SyntheticRun(8, 1)})
				if err == nil {
					err = s.Wait(id)
				}
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < submitters; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
