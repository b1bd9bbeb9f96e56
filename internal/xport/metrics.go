package xport

import (
	"fmt"
	"sync"

	"indexlaunch/internal/metrics"
)

// Endpoint metrics: one counter set, two family prefixes. The in-process
// assembly registers the xport_* families (the shared names in
// internal/metrics, so a transport given the runtime's registry shares the
// runtime's counters); internal/wire's mesh registers the same set as
// wire_*. Stats is a read-through view of them either way — there is no
// second bookkeeping path. On top of
// the aggregates each directed link gets its own send/ack/retransmit/drop
// counters (label link="src->dst"), resolved once per link and cached so
// the message path never formats a label twice.

type endpointMetrics struct {
	sends, retransmits, acks, drops, dedups, reparents, directs *metrics.Counter
	treeDepth                                                   *metrics.Gauge

	linkSends, linkAcks, linkRetransmits, linkDrops *metrics.CounterVec

	mu    sync.Mutex
	links map[link]*linkCounters
}

// linkCounters are one directed link's resolved per-link instruments.
type linkCounters struct {
	label                           string // "src->dst"
	sends, acks, retransmits, drops *metrics.Counter
}

func newEndpointMetrics(reg *metrics.Registry, family string) *endpointMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &endpointMetrics{
		sends:       reg.Counter(family+"_sends_total", "hop-level message first transmissions"),
		retransmits: reg.Counter(family+"_retransmits_total", "ack-timeout-driven hop re-sends"),
		acks:        reg.Counter(family+"_acks_total", "effective acks received"),
		drops:       reg.Counter(family+"_drops_total", "transmissions (data and acks) lost to chaos"),
		dedups:      reg.Counter(family+"_dedups_total", "received duplicates suppressed by sequence numbers"),
		reparents:   reg.Counter(family+"_reparents_total", "broadcast-tree orphan adoptions"),
		directs:     reg.Counter(family+"_direct_broadcasts_total", "broadcasts that abandoned a degraded tree for direct sends"),
		treeDepth:   reg.Gauge(family+"_tree_depth", "fan-out depth (max hops) of the last planned broadcast"),

		linkSends:       reg.CounterVec(family+"_link_sends_total", "first transmissions per directed link", "link"),
		linkAcks:        reg.CounterVec(family+"_link_acks_total", "effective acks received per directed data link", "link"),
		linkRetransmits: reg.CounterVec(family+"_link_retransmits_total", "timeout-driven re-sends per directed link", "link"),
		linkDrops:       reg.CounterVec(family+"_link_drops_total", "chaos-dropped transmissions per directed link", "link"),

		links: map[link]*linkCounters{},
	}
}

// linkSnapshot deep-copies the per-link counter table into a fresh map of
// value snapshots. Taken under mu so a concurrently-resolving sender never
// races the iteration, and returning copies (never the cached *Counter
// map itself) keeps Stats callers from racing the message path.
func (m *endpointMetrics) linkSnapshot() map[string]LinkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]LinkStats, len(m.links))
	for _, lc := range m.links {
		out[lc.label] = LinkStats{
			Sends:       lc.sends.Value(),
			Acks:        lc.acks.Value(),
			Retransmits: lc.retransmits.Value(),
			Drops:       lc.drops.Value(),
		}
	}
	return out
}

// link resolves (and caches) the per-link counters for lk.
func (m *endpointMetrics) link(lk link) *linkCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	lc := m.links[lk]
	if lc == nil {
		label := fmt.Sprintf("%d->%d", lk.src, lk.dst)
		lc = &linkCounters{
			label:       label,
			sends:       m.linkSends.With(label),
			acks:        m.linkAcks.With(label),
			retransmits: m.linkRetransmits.With(label),
			drops:       m.linkDrops.With(label),
		}
		m.links[lk] = lc
	}
	return lc
}

// drop counts one chaos-lost transmission on lk.
func (m *endpointMetrics) drop(lk link) {
	m.drops.Inc()
	m.link(lk).drops.Inc()
}
