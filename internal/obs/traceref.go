package obs

// TraceRef is the span context that rides with a job through every layer:
// the trace identity shared by all of the job's spans, the span's own
// identity, and its parent. It lives in obs — not internal/trace — so the
// runtime, transport and scheduler can stamp the events they
// already emit without a new import edge; internal/trace consumes the
// stamped events through the recorder's sink.
//
// The zero TraceRef means "untraced": emission sites pass it freely and the
// recorder treats the resulting events exactly like pre-trace events, so
// disabled tracing keeps the one-branch/zero-alloc discipline.
//
// Identities derive from splitmix64, the repo's standard deterministic
// mixer: the same admission seed yields the same span tree on every run,
// which is what the golden span-tree tests lock down.
type TraceRef struct {
	// Trace identifies the whole trace (one per job); 0 means untraced.
	Trace uint64
	// Span is this context's own span identity.
	Span uint64
	// Parent is the identity of the enclosing span; 0 at the root.
	Parent uint64
}

// Valid reports whether the ref carries a live trace.
func (t TraceRef) Valid() bool { return t.Trace != 0 }

// Child derives the n-th child context: same trace, a fresh span identity
// mixed from the parent span and n, parented on t. Distinct n values give
// distinct children; the derivation is pure, so concurrent layers can
// partition n-space (e.g. per-attempt offsets) instead of synchronizing on
// a counter.
func (t TraceRef) Child(n uint64) TraceRef {
	if t.Trace == 0 {
		return TraceRef{}
	}
	return TraceRef{
		Trace:  t.Trace,
		Span:   nonZero(Mix64(t.Span ^ (n+1)*0x9e3779b97f4a7c15)),
		Parent: t.Span,
	}
}

// NewTraceRef derives a root span context from a seed (typically the job
// ID mixed with the scheduler's trace seed). The root's Parent is 0.
func NewTraceRef(seed uint64) TraceRef {
	trace := nonZero(Mix64(seed))
	return TraceRef{Trace: trace, Span: nonZero(Mix64(trace))}
}

// Mix64 is the splitmix64 finalizer used across the repo for deterministic
// hashing (chaos plans, jitter, sharding).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nonZero keeps identities out of the reserved "untraced" value.
func nonZero(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return x
}
