package sched

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Admission configures backpressure: a global queue bound plus per-tenant
// quotas and token-bucket rate limits. The zero value admits everything up
// to the default queue bound.
type Admission struct {
	// MaxQueued bounds the total queue; submissions past it are rejected
	// with ErrAdmissionRejected. 0 defaults to 1024.
	MaxQueued int
	// Default is the quota applied to tenants not listed in Tenants.
	Default Quota
	// Tenants maps tenant to its quota.
	Tenants map[string]Quota
}

// Quota is one tenant's admission contract.
type Quota struct {
	// MaxQueued bounds the tenant's queued jobs; 0 means unbounded (up to
	// the global bound).
	MaxQueued int
	// Rate is the tenant's sustained admission rate in jobs per scheduler
	// tick, refilled each tick scaled by the current capacity factor — the
	// runtimes' live-node fraction — so killed nodes throttle admission
	// before queues overflow. 0 means unlimited.
	Rate float64
	// Burst caps the tenant's token bucket; 0 defaults to max(Rate, 1).
	Burst float64
	// Weight is the tenant's fair-share weight (used by NewWeightedFair
	// via Admission.Weight); values < 1 count as 1.
	Weight int
}

const defaultMaxQueued = 1024

// Rejection reasons, rendered into the decision log and the `reason` label
// of sched_rejected_total.
const (
	ReasonQueueFull       = "queue-full"
	ReasonTenantQueueFull = "tenant-queue-full"
	ReasonRateLimited     = "rate-limited"
	ReasonNoCapacity      = "no-capacity"
	ReasonDraining        = "draining"
	ReasonShutdown        = "shutdown"
)

// ErrAdmissionRejected is the sentinel every backpressure rejection
// matches: errors.Is(err, ErrAdmissionRejected) holds for any *RejectError.
var ErrAdmissionRejected = errors.New("sched: admission rejected")

// RejectError is a backpressured submission: the job was not enqueued, and
// the caller should retry after the hinted delay (or shed the work).
type RejectError struct {
	Tenant string
	// Reason is one of the Reason* constants.
	Reason string
	// RetryAfterTicks hints how many scheduler ticks until a retry could
	// succeed; 0 means no estimate (e.g. capacity is gone entirely).
	RetryAfterTicks int64
	// RetryAfter is RetryAfterTicks converted to wall time by the live
	// scheduler's tick period; zero in trace mode.
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	s := fmt.Sprintf("sched: admission rejected: tenant %q: %s", e.Tenant, e.Reason)
	if e.RetryAfterTicks > 0 {
		s += fmt.Sprintf(" (retry after %d tick(s))", e.RetryAfterTicks)
	}
	return s
}

// Is matches ErrAdmissionRejected.
func (e *RejectError) Is(target error) bool { return target == ErrAdmissionRejected }

// Weight returns the configured fair-share weight for tenant (>= 1) — the
// bridge from Admission to NewWeightedFair.
func (a Admission) Weight(tenant string) int {
	q := a.Default
	if tq, ok := a.Tenants[tenant]; ok {
		q = tq
	}
	if q.Weight < 1 {
		return 1
	}
	return q.Weight
}

// Weights collects every explicitly configured tenant weight, for
// NewWeightedFair.
func (a Admission) Weights() map[string]int {
	w := map[string]int{}
	for t := range a.Tenants {
		w[t] = a.Weight(t)
	}
	return w
}

// admission is the live token-bucket state behind an Admission config. Like
// the rest of the state it has no clock: buckets refill once per advance.
type admission struct {
	opt      Admission
	capacity float64 // live-node fraction in [0, 1]; scales refill
	buckets  map[string]*bucket
}

type bucket struct{ tokens float64 }

func newAdmission(opt Admission) *admission {
	if opt.MaxQueued <= 0 {
		opt.MaxQueued = defaultMaxQueued
	}
	return &admission{opt: opt, capacity: 1, buckets: map[string]*bucket{}}
}

func (a *admission) maxQueued() int { return a.opt.MaxQueued }

func (a *admission) quota(tenant string) Quota {
	if q, ok := a.opt.Tenants[tenant]; ok {
		return q
	}
	return a.opt.Default
}

func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	return math.Max(q.Rate, 1)
}

func (a *admission) setCapacity(f float64) { a.capacity = clampCapacity(f) }

// clampCapacity bounds a capacity factor to [0, 1].
func clampCapacity(f float64) float64 { return min(max(f, 0), 1) }

// bucketFor returns the tenant's bucket, created full on first use.
func (a *admission) bucketFor(tenant string) *bucket {
	b := a.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: a.quota(tenant).burst()}
		a.buckets[tenant] = b
	}
	return b
}

// take spends one admission token for tenant. On refusal it reports the
// reason and a retry hint in ticks.
func (a *admission) take(tenant string) (ok bool, reason string, retryTicks int64) {
	q := a.quota(tenant)
	if q.Rate <= 0 {
		return true, "", 0
	}
	b := a.bucketFor(tenant)
	if b.tokens >= 1 {
		b.tokens--
		return true, "", 0
	}
	eff := q.Rate * a.capacity
	if eff <= 0 {
		return false, ReasonNoCapacity, 0
	}
	return false, ReasonRateLimited, int64(math.Ceil((1 - b.tokens) / eff))
}

// refill advances every bucket by one tick of capacity-scaled rate.
func (a *admission) refill() {
	for tenant, b := range a.buckets {
		q := a.quota(tenant)
		b.tokens = math.Min(q.burst(), b.tokens+q.Rate*a.capacity)
	}
}

// bucketLevels snapshots every materialized bucket's level, for the
// durability snapshot.
func (a *admission) bucketLevels() map[string]float64 {
	if len(a.buckets) == 0 {
		return nil
	}
	out := make(map[string]float64, len(a.buckets))
	for tenant, b := range a.buckets {
		out[tenant] = b.tokens
	}
	return out
}

// restoreBuckets rebuilds bucket levels from a snapshot.
func (a *admission) restoreBuckets(levels map[string]float64) {
	a.buckets = make(map[string]*bucket, len(levels))
	for tenant, tokens := range levels {
		a.buckets[tenant] = &bucket{tokens: tokens}
	}
}

// tokens reports the tenant's current bucket level for /statusz; tenants
// with no rate limit report -1.
func (a *admission) tokens(tenant string) float64 {
	if a.quota(tenant).Rate <= 0 {
		return -1
	}
	return a.bucketFor(tenant).tokens
}
