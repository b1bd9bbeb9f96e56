// Package xport is the runtime's message transport for the centralized
// (non-DCR) distribution path: the paper's §5 pipeline ships slices from
// node 0 through an O(log N) broadcast tree, and this package makes those
// messages explicit so they can fail.
//
// There is one engine, Endpoint (endpoint.go): per-link sequence numbers
// and delivery generations, tri-state dedup, ack/timeout retransmission on
// a capped-backoff ladder, tree routing that re-parents around dead relays
// and degrades to direct sends (tree.go), and acks chained leaf-to-root.
// It runs over any Fabric. Two assemblies use it:
//
//   - New, here: N endpoints in one process over the in-memory Hub. It is
//     deterministic, and with Options.Chaos every hub port is wrapped in
//     the chaos fabric (WithChaos), which applies a seeded ChaosPlan —
//     per-link drop, delay, duplication, reordering and bounded partitions,
//     every decision a pure function of (seed, link, class, sequence,
//     attempt), never of goroutine interleaving.
//   - internal/wire.NewMesh: one endpoint per OS process over TCP (or the
//     hub with the frame codec in the loop), plus remote task execution.
//
// The net guarantee the chaos property suite leans on: as long as the plan
// admits eventual delivery (Drop < 1, partitions bounded — enforced by
// ChaosPlan.Validate), Broadcast returns only after every payload has been
// delivered exactly once, so the task stream issued on top of the transport
// is identical to a fault-free run's.
package xport

import (
	"fmt"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
)

// link is one directed node pair; data flows src→dst, acks dst→src.
type link struct{ src, dst int }

// RetransmitPolicy tunes the per-hop ack-timeout ladder.
type RetransmitPolicy struct {
	// Timeout is the ack wait before the first retransmission; each
	// further attempt doubles it. Zero defaults to 1ms.
	Timeout time.Duration
	// MaxBackoff caps the doubling; zero defaults to 16ms.
	MaxBackoff time.Duration
}

const (
	defaultTimeout    = time.Millisecond
	defaultMaxBackoff = 16 * time.Millisecond
)

// WaitFor returns the capped ack timeout for the given 1-based attempt.
func (rp RetransmitPolicy) WaitFor(attempt int) time.Duration {
	base := rp.Timeout
	if base <= 0 {
		base = defaultTimeout
	}
	max := rp.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift >= 63 {
		return max
	}
	d := base << shift
	if d <= 0 || d > max || d>>shift != base {
		return max
	}
	return d
}

// Stats is a snapshot of the transport counters.
type Stats struct {
	// Sends counts hop-level message sends (first transmissions);
	// Retransmits counts timeout-driven re-sends on top of them.
	Sends       int64
	Retransmits int64
	// Drops counts transmissions (data and acks) lost to chaos.
	Drops int64
	// Dedups counts received duplicates suppressed by sequence numbers.
	Dedups int64
	// Reparents counts orphan adoptions: live nodes routed through a
	// surviving ancestor because their broadcast-tree parent is dead,
	// accumulated per broadcast.
	Reparents int64
	// DirectBroadcasts counts broadcasts that abandoned the degraded tree
	// for direct node-0 sends.
	DirectBroadcasts int64
	// PerLink maps each directed link ("src->dst") to its own counters.
	// The map is built fresh on every snapshot — callers may iterate it
	// freely while senders keep transmitting.
	PerLink map[string]LinkStats
}

// LinkStats is one directed link's counter snapshot.
type LinkStats struct {
	Sends       int64
	Acks        int64
	Retransmits int64
	Drops       int64
}

// Options configures the in-process assembly.
type Options struct {
	// Chaos injects message faults; nil runs fault-free.
	Chaos *ChaosPlan
	// Retransmit tunes the ack-timeout ladder; the zero value uses
	// defaults.
	Retransmit RetransmitPolicy
	// Prof records send/recv/retransmit events; nil disables profiling.
	Prof *obs.Recorder
	// Metrics receives the transport's counters: the shared xport_*
	// aggregates (internal/metrics.NameXport*) plus per-link
	// send/ack/retransmit/drop counters and the broadcast fan-out depth
	// gauge. Nil keeps the counters in a private registry, so Stats always
	// works.
	Metrics *metrics.Registry
	// Deliver, when set, receives each payload exactly once at its
	// destination node. It may be called from transport goroutines and must
	// be safe for concurrent use. Nil discards payloads on arrival: the
	// sender already holds them, and Broadcast still returns only after
	// every destination has received its own.
	Deliver func(node int, payload any)
}

// Item is one payload addressed to a destination node. A []byte payload
// travels as the frame body and crosses any fabric; any other value stays
// in memory and so only survives the in-process assembly.
type Item struct {
	Dst     int
	Payload any
}

// Transport is the in-process assembly: one Endpoint per node over an
// in-memory hub, all sharing one counter set and one quiescence barrier.
// The embedded Endpoint is node 0's — the broadcast origin — so
// Broadcast, MarkDead/MarkAlive, Recycle, Shape, Stats and Quiesce
// are its methods; recycling node 0 is enough, the other endpoints follow
// the generation stamped on its frames.
type Transport struct {
	*Endpoint
	eps []*Endpoint
}

// New creates a transport over nodes nodes, all initially alive.
func New(nodes int, opts Options) (*Transport, error) {
	return assemble(nodes, opts, "xport")
}

// assemble builds the in-process assembly under a metric family prefix.
func assemble(nodes int, opts Options, family string) (*Transport, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("xport: transport requires >= 1 node, got %d", nodes)
	}
	if err := opts.Chaos.Validate(); err != nil {
		return nil, err
	}
	var deliver func(*Endpoint, *Frame)
	if opts.Deliver != nil {
		deliver = func(_ *Endpoint, f *Frame) { opts.Deliver(f.Dst, f.Payload()) }
	}
	hub := NewHub()
	t := &Transport{eps: make([]*Endpoint, nodes)}
	for i := range t.eps {
		ep, err := NewEndpoint(EndpointConfig{
			Self: i, Nodes: nodes, Fabric: WithChaos(hub.Fabric(i), opts.Chaos),
			Retransmit: opts.Retransmit, Prof: opts.Prof, Metrics: opts.Metrics, Family: family,
			Deliver: deliver, share: t.Endpoint,
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			t.Endpoint = ep
		}
		t.eps[i] = ep
	}
	return t, nil
}

// Close closes every endpoint of the assembly.
func (t *Transport) Close() error {
	for _, ep := range t.eps {
		_ = ep.Close() // hub ports cannot fail to close
	}
	return nil
}
