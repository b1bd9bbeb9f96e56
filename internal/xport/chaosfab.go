package xport

import (
	"sync"
	"time"
)

// WithChaos wraps one node's fabric so every frame it sends meets the fate
// plan.Decide rolls for it: dropped, duplicated, delayed (and so
// reordered), or cut by a partition window. It is the in-process analog of
// internal/wire.Proxy — same plan, same decision function, applied before
// the inner fabric instead of on a socket — and it composes with any
// fabric: the in-process assembly wraps its hub ports, a cluster mesh under
// test wraps whatever it was built on. A nil plan returns fab unchanged.
//
// Decisions never depend on goroutine interleaving or the wall clock. The
// attempt fed to Decide is the decorator's own count of transmissions of
// that (link, class, generation, sequence); partition windows run on its
// per-link transmission counts.
func WithChaos(fab Fabric, plan *ChaosPlan) Fabric {
	if plan == nil {
		return fab
	}
	return &chaosFabric{Fabric: fab, plan: plan, track: newTracker(),
		clock: map[int]int64{}, sent: map[chaosLink]*chaosHistory{}}
}

type chaosFabric struct {
	Fabric // the wrapped fabric: receiving, peers and Close pass through
	plan   *ChaosPlan

	// track and mx come from the endpoint using the fabric (attach): delayed
	// and duplicate deliveries are goroutines its Quiesce must wait for,
	// drops land in its counters.
	track *tracker
	mx    *endpointMetrics

	mu    sync.Mutex
	clock map[int]int64               // transmissions per dst, data and acks together
	sent  map[chaosLink]*chaosHistory // transmissions per frame, per (dst, class)
}

// chaosLink keys per-link state; src is always the wrapped node.
type chaosLink struct {
	dst   int
	class FrameClass
}

// chaosHistory counts transmissions per (generation, sequence). A newer
// generation (the sender recycled) starts it over, so it stays bounded.
type chaosHistory struct {
	gen    uint64
	counts map[[2]uint64]int
}

func (c *chaosFabric) attach(e *Endpoint) { c.track, c.mx = e.track, e.mx }

// Unwrap returns the wrapped fabric.
func (c *chaosFabric) Unwrap() Fabric { return c.Fabric }

// identify advances the decorator's counters for one transmission of f and
// returns its attempt number and partition-clock reading.
func (c *chaosFabric) identify(dst int, class FrameClass, f *Frame) (attempt int, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n = c.clock[dst]
	c.clock[dst] = n + 1
	hk := chaosLink{dst: dst, class: class}
	id := [2]uint64{f.Gen, f.Seq}
	h := c.sent[hk]
	if h == nil || f.Gen > h.gen {
		h = &chaosHistory{gen: f.Gen, counts: map[[2]uint64]int{}}
		c.sent[hk] = h
	}
	h.counts[id]++
	return h.counts[id], n
}

func (c *chaosFabric) Send(dst int, f *Frame) error {
	class := ClassOf(f.Kind)
	attempt, n := c.identify(dst, class, f)
	fate := c.plan.Decide(f.Src, dst, class, f.Seq, attempt, n)
	if fate.Drop {
		if c.mx != nil {
			c.mx.drop(link{src: f.Src, dst: dst})
		}
		return nil // a lossy link does not report its losses
	}
	if fate.Delay == 0 && !fate.Dup {
		return c.Fabric.Send(dst, f)
	}
	later := func() {
		time.Sleep(fate.Delay)
		_ = c.Fabric.Send(dst, f)
	}
	if fate.Dup {
		c.track.Go(later)
	}
	if fate.Delay > 0 {
		c.track.Go(later)
		return nil
	}
	return c.Fabric.Send(dst, f)
}
