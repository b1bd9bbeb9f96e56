package sched

import (
	"math"
	"testing"
)

// Policy properties over seeded traces: weighted fair share converges to
// the configured weights, and strict priority never inverts. Both are
// checked against the queue disciplines directly and through the virtual
// -time driver, so the properties hold for the exact code paths the live
// scheduler dispatches through.

// TestFairShareConvergence: three tenants with weights 1:2:4 submit a fully
// backlogged seeded trace; over the window where all tenants stay
// backlogged, each tenant's share of served cost must match its weight
// share within ±5 percentage points.
func TestFairShareConvergence(t *testing.T) {
	weights := map[string]int{"a": 1, "b": 2, "c": 4}
	adm := Admission{
		MaxQueued: 20000,
		Tenants: map[string]Quota{
			"a": {Weight: 1}, "b": {Weight: 2}, "c": {Weight: 4},
		},
	}
	for _, seed := range []int64{1, 7, 42} {
		// 10k jobs, all arriving at tick 0: a pure backlog.
		tr := GenTrace(seed, TraceOptions{
			Jobs: 10000, MaxInterArrival: 0, MaxCost: 3, MinService: 1, MaxService: 2,
		})
		res := RunTrace(tr, TraceConfig{
			Executors: 2,
			Queue:     NewWeightedFair(1, weights, 1),
			Admission: adm,
		})

		// Measure shares over the early admit window, while every tenant is
		// still backlogged. The heaviest tenant (weight 4/7) drains its ~1/3
		// of arrivals first; admits before index 3000 are safely inside the
		// all-backlogged regime.
		const window = 3000
		served := map[string]int64{}
		var total int64
		admits := 0
		for _, d := range res.Log {
			if d.Kind != KindAdmit {
				continue
			}
			if admits >= window {
				break
			}
			admits++
			// Cost is not in the admit record; recover it from the trace by
			// job ID (jobs are numbered in arrival order from 1).
			cost := tr.Jobs[d.Job-1].Cost
			served[d.Tenant] += cost
			total += cost
		}
		if admits < window {
			t.Fatalf("seed %d: only %d admits, want >= %d", seed, admits, window)
		}
		var wsum int64
		for _, w := range weights {
			wsum += int64(w)
		}
		for tenant, w := range weights {
			want := float64(w) / float64(wsum)
			got := float64(served[tenant]) / float64(total)
			if math.Abs(got-want) > 0.05 {
				t.Errorf("seed %d: tenant %s share = %.3f, want %.3f ± 0.05 (served %d of %d)",
					seed, tenant, got, want, served[tenant], total)
			}
		}
	}
}

// TestStrictPriorityNeverInverts drives the priority queue through a seeded
// push/pop interleaving and asserts the queue-level property: a pop never
// returns a job while a strictly higher-priority job is queued.
func TestStrictPriorityNeverInverts(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := &splitmix64{s: uint64(seed)}
		q := NewStrictPriority()
		queued := map[int]int{} // priority -> count
		var id JobID
		for op := 0; op < 20000; op++ {
			if rng.intn(3) > 0 || q.Len() == 0 { // push-biased to build depth
				id++
				prio := int(rng.intn(5))
				q.Push(&Job{ID: id, Spec: JobSpec{Tenant: "t", Priority: prio}})
				queued[prio]++
				continue
			}
			j := q.Pop()
			if j == nil {
				t.Fatalf("seed %d op %d: Pop returned nil with Len=%d", seed, op, q.Len())
			}
			for prio, n := range queued {
				if n > 0 && prio > j.Spec.Priority {
					t.Fatalf("seed %d op %d: popped priority %d while %d jobs at priority %d queued",
						seed, op, j.Spec.Priority, n, prio)
				}
			}
			queued[j.Spec.Priority]--
		}
		// Drain: priorities must come out in non-increasing order.
		last := int(math.MaxInt32)
		for q.Len() > 0 {
			j := q.Pop()
			if j.Spec.Priority > last {
				t.Fatalf("seed %d: drain inverted: %d after %d", seed, j.Spec.Priority, last)
			}
			last = j.Spec.Priority
		}
	}
}

// TestStrictPriorityEndToEnd runs priorities through the trace driver: with
// one executor and a backlog, completion order must respect priority.
func TestStrictPriorityEndToEnd(t *testing.T) {
	tr := GenTrace(42, TraceOptions{Jobs: 200, MaxPriority: 3, MinService: 1, MaxService: 1})
	res := RunTrace(tr, TraceConfig{Executors: 1, Queue: NewStrictPriority()})
	// Replay the log: after the backlog forms (first admit done), any admit
	// must pick the highest priority then queued.
	type qjob struct{ prio int }
	queued := map[JobID]qjob{}
	for _, d := range res.Log {
		switch d.Kind {
		case KindEnqueue:
			queued[d.Job] = qjob{prio: tr.Jobs[d.Job-1].Priority}
		case KindAdmit:
			mine := queued[d.Job]
			delete(queued, d.Job)
			for other, oj := range queued {
				if oj.prio > mine.prio {
					t.Fatalf("admitted j%d (prio %d) while j%d (prio %d) queued",
						d.Job, mine.prio, other, oj.prio)
				}
			}
		}
	}
}

// TestFairQueueRequeueFront: a preempted job re-enters at the front of its
// tenant's line.
func TestFairQueueRequeueFront(t *testing.T) {
	q := NewWeightedFair(1, nil, 1)
	j1 := &Job{ID: 1, Spec: JobSpec{Tenant: "a"}}
	j2 := &Job{ID: 2, Spec: JobSpec{Tenant: "a"}}
	j3 := &Job{ID: 3, Spec: JobSpec{Tenant: "a"}}
	q.Push(j1)
	q.Push(j2)
	q.Requeue(j3)
	if got := q.Pop(); got != j3 {
		t.Fatalf("Pop = j%d, want requeued j3 first", got.ID)
	}
	if got := q.Pop(); got != j1 {
		t.Fatalf("Pop = j%d, want j1", got.ID)
	}
}

// TestAdmissionRetryHints: rejections carry usable retry-after hints and
// match the sentinel.
func TestAdmissionRetryHints(t *testing.T) {
	p := newState(NewFIFO(), Admission{
		MaxQueued: 4,
		Tenants:   map[string]Quota{"rl": {Rate: 0.5, Burst: 1}},
	}, 1, 0)
	// Token bucket: first submit spends the burst, second is rate-limited.
	if rej := p.submit(&Job{ID: 1, Spec: JobSpec{Tenant: "rl"}}); rej != nil {
		t.Fatalf("first submit rejected: %v", rej)
	}
	rej := p.submit(&Job{ID: 2, Spec: JobSpec{Tenant: "rl"}})
	if rej == nil || rej.Reason != ReasonRateLimited {
		t.Fatalf("second submit: got %+v, want rate-limited", rej)
	}
	if rej.RetryAfterTicks < 1 {
		t.Fatalf("rate-limited rejection has no retry hint: %+v", rej)
	}
	// Refills at 0.5/tick: two ticks restore a token.
	p.apply(op{K: opAdvance, N: 2})
	if rej := p.submit(&Job{ID: 3, Spec: JobSpec{Tenant: "rl"}}); rej != nil {
		t.Fatalf("submit after refill rejected: %v", rej)
	}
	// Zero capacity: no refill can ever admit.
	p.adm.setCapacity(0)
	rej = p.submit(&Job{ID: 4, Spec: JobSpec{Tenant: "rl"}})
	if rej == nil || rej.Reason != ReasonNoCapacity {
		t.Fatalf("zero-capacity submit: got %+v, want no-capacity", rej)
	}
	// Queue bound.
	for i := JobID(5); ; i++ {
		rej = p.submit(&Job{ID: i, Spec: JobSpec{Tenant: "free"}})
		if rej != nil {
			break
		}
	}
	if rej.Reason != ReasonQueueFull || rej.RetryAfterTicks < 1 {
		t.Fatalf("overflow rejection = %+v, want queue-full with hint", rej)
	}
}

// TestDeadlineExpiry: jobs whose deadline lapses in queue are expired at
// dispatch, not run.
func TestDeadlineExpiry(t *testing.T) {
	tr := Trace{Seed: 0, Jobs: []TraceJob{
		{At: 0, Tenant: "a", Service: 10},
		{At: 0, Tenant: "a", Deadline: 2, Service: 1},
	}}
	res := RunTrace(tr, TraceConfig{Executors: 1})
	if res.Expired["a"] != 1 {
		t.Fatalf("expired = %d, want 1 (log:\n%s)", res.Expired["a"], RenderLog(res.Log))
	}
	if res.Completed["a"] != 1 {
		t.Fatalf("completed = %d, want 1", res.Completed["a"])
	}
}
