package xport

import (
	"fmt"
	"time"
)

// ChaosPlan injects deterministic message-level faults into a fabric
// (WithChaos in-process, internal/wire.Proxy on a socket). Every decision — drop this transmission, delay it, duplicate it, let a
// later message overtake it — derives from a seeded hash of the link, the
// message sequence number and the transmission attempt, never from shared
// RNG state or goroutine interleaving. Two transmissions with the same
// (seed, link, seq, attempt) identity meet the same fate in every run, so a
// chaos schedule is a pure function of the plan, not of scheduling luck.
//
// The zero plan (or a nil *ChaosPlan) injects nothing: messages deliver
// immediately and exactly once.
type ChaosPlan struct {
	// Seed keys every per-transmission decision.
	Seed int64
	// Drop is the probability a transmission (data or ack) is lost on a
	// link. Must be < 1: the retransmission layer guarantees eventual
	// delivery only when every attempt has a positive chance of surviving.
	Drop float64
	// Dup is the probability a delivered transmission arrives twice; the
	// receiver deduplicates the copy.
	Dup float64
	// Reorder is the probability a transmission is held an extra DelayMax,
	// letting later messages on the link overtake it.
	Reorder float64
	// DelayMax bounds the uniform per-transmission link delay.
	DelayMax time.Duration
	// Partitions take links down for bounded transmission windows.
	Partitions []Partition
}

// Partition is a bounded outage of the link between nodes A and B (both
// directions): every transmission attempted while the link's lifetime
// transmission count is in [AfterSends, AfterSends+Sends) is lost.
// Retransmission attempts advance the count, so an outage always heals.
type Partition struct {
	A, B       int
	AfterSends int64
	Sends      int64
}

// Validate reports plans whose faults the transport cannot survive.
func (c *ChaosPlan) Validate() error {
	if c == nil {
		return nil
	}
	for name, p := range map[string]float64{"Drop": c.Drop, "Dup": c.Dup, "Reorder": c.Reorder} {
		if p < 0 || p >= 1 {
			return fmt.Errorf("xport: ChaosPlan.%s = %v, want [0, 1): probability 1 would block delivery forever", name, p)
		}
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("xport: ChaosPlan.DelayMax = %v, want >= 0", c.DelayMax)
	}
	for i, p := range c.Partitions {
		if p.AfterSends < 0 || p.Sends < 0 {
			return fmt.Errorf("xport: ChaosPlan.Partitions[%d] has negative window %+v", i, p)
		}
	}
	return nil
}

// Decision salts, one per fault axis, so one (link, seq, attempt) identity
// yields independent rolls for drop, dup, delay and reorder.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltDelay
	saltReorder
	saltAck
	_ // retired: retransmission jitter
)

// splitmix64 is the standard splitmix64 finalizer — a cheap, well-mixed
// hash good enough to turn identities into uniform rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll returns a uniform [0,1) float keyed on the transmission identity.
func (c *ChaosPlan) roll(salt uint64, lk link, seq uint64, attempt int) float64 {
	h := splitmix64(uint64(c.Seed) ^ salt)
	h = splitmix64(h ^ uint64(lk.src)<<32 ^ uint64(uint32(lk.dst)))
	h = splitmix64(h ^ seq ^ uint64(attempt)<<48)
	return float64(h>>11) / (1 << 53)
}

// FrameClass is a frame's role in the delivery protocol — the granularity
// at which the plan rolls independent fates. Everything sequenced on a
// reliable link (Data, Exec, Result, handshakes) is ClassData.
type FrameClass uint8

const (
	ClassData FrameClass = iota
	ClassAck
)

// ClassOf maps a frame kind to its chaos class.
func ClassOf(k Kind) FrameClass {
	if k == KindAck {
		return ClassAck
	}
	return ClassData
}

// Fate is the plan's verdict on one transmission.
type Fate struct {
	// Drop loses the transmission (partition window or drop roll).
	Drop bool
	// Dup delivers it twice; the receiver deduplicates the copy.
	Dup bool
	// Delay holds it back (reorder rolls add a full extra DelayMax).
	Delay time.Duration
}

// Decide is the plan's whole per-frame decision surface, shared by the
// in-process chaos fabric (WithChaos) and the socket-level proxy
// (internal/wire.Proxy): a pure function of the seed, the directed link,
// the frame class, the frame's sequence number, the caller's count of
// transmissions of that frame (attempt, 1-based) and the directed link's
// lifetime transmission count (n), one clock that data and acks share.
// Acks are never duplicated.
func (c *ChaosPlan) Decide(src, dst int, class FrameClass, seq uint64, attempt int, n int64) Fate {
	if c == nil {
		return Fate{}
	}
	lk := link{src: src, dst: dst}
	// One drop salt per class, so the fates of a data frame and an ack
	// that share a (link, seq, attempt) identity never correlate.
	salt := saltDrop
	if class == ClassAck {
		salt = saltAck
	}
	fate := Fate{Drop: c.cut(lk, n) || c.Drop > 0 && c.roll(salt, lk, seq, attempt) < c.Drop,
		Delay: c.delay(lk, seq, attempt)}
	if class == ClassData {
		fate.Dup = c.Dup > 0 && c.roll(saltDup, lk, seq, attempt) < c.Dup
	}
	return fate
}

// cut reports whether the link's n-th lifetime transmission falls inside a
// partition window.
func (c *ChaosPlan) cut(lk link, n int64) bool {
	for _, p := range c.Partitions {
		if (p.A == lk.src && p.B == lk.dst) || (p.A == lk.dst && p.B == lk.src) {
			if n >= p.AfterSends && n < p.AfterSends+p.Sends {
				return true
			}
		}
	}
	return false
}

// delay returns the link delay for one transmission: a uniform draw up to
// DelayMax, plus a full extra DelayMax when the reorder roll fires, so
// later transmissions on the link can overtake this one.
func (c *ChaosPlan) delay(lk link, seq uint64, attempt int) time.Duration {
	if c.DelayMax <= 0 {
		return 0
	}
	d := time.Duration(c.roll(saltDelay, lk, seq, attempt) * float64(c.DelayMax))
	if c.Reorder > 0 && c.roll(saltReorder, lk, seq, attempt) < c.Reorder {
		d += c.DelayMax
	}
	return d
}
