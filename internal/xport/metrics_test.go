package xport

import (
	"strings"
	"testing"
	"time"

	"indexlaunch/internal/metrics"
)

// Per-link counters and the registry-sharing contract: a transport given a
// registry registers the shared xport_* aggregate families (so a runtime
// holding the same registry reads transport counts with no second
// bookkeeping) plus per-link send/ack/retransmit/drop counters labeled
// "src->dst".

func TestSharedRegistryServesTransportCounters(t *testing.T) {
	const nodes = 8
	reg := metrics.NewRegistry()
	c := newCollector()
	tr := mustNew(t, nodes, Options{Deliver: c.deliver, Metrics: reg})
	tr.Broadcast("b", allItems(nodes))
	checkDelivered(t, c, nodes)

	st := tr.Stats()
	vals := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if len(f.Series) == 1 && len(f.Series[0].Labels) == 0 {
			vals[f.Name] = f.Series[0].Value
		}
	}
	if st.Sends != 13 {
		t.Fatalf("sends = %d, want 13 (binary tree over 7 destinations)", st.Sends)
	}
	for name, got := range map[string]int64{
		metrics.NameXportSends:       st.Sends,
		metrics.NameXportRetransmits: st.Retransmits,
		metrics.NameXportDrops:       st.Drops,
		metrics.NameXportDedups:      st.Dedups,
		metrics.NameXportReparents:   st.Reparents,
	} {
		if vals[name] != got {
			t.Errorf("registry %s = %d, Stats = %d", name, vals[name], got)
		}
	}
	// Fault-free binary broadcast over 8 nodes: depth(1..7) = max 3 hops.
	if d := vals[metrics.NameXportTreeDepth]; d != 3 {
		t.Errorf("tree depth gauge = %d, want 3", d)
	}
}

// The per-link tests run once per family prefix: xport_* is what the
// in-process assembly records, wire_* what internal/wire's mesh does — the
// same counter set either way.
var families = []string{"xport", "wire"}

func assembleFamily(t *testing.T, nodes int, opts Options, family string) *Transport {
	t.Helper()
	tr, err := assemble(nodes, opts, family)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// linkVals reads one labeled family as label value → count.
func linkVals(reg *metrics.Registry, family string) map[string]int64 {
	out := map[string]int64{}
	for _, f := range reg.Gather().Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			out[s.Labels[0].Value] = s.Value
		}
	}
	return out
}

func TestPerLinkCounters(t *testing.T) {
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			const nodes = 4
			reg := metrics.NewRegistry()
			c := newCollector()
			tr := assembleFamily(t, nodes, Options{Deliver: c.deliver, Metrics: reg}, family)
			tr.Broadcast("b", allItems(nodes))
			checkDelivered(t, c, nodes)

			// Binary tree over nodes 0..3: link 0->1 carries node 1's payload
			// plus the relay hop for node 3 (two sends), 0->2 and 1->3 one
			// each; per-link counts must sum to the aggregate, with acks
			// matching sends hop for hop.
			sends := linkVals(reg, family+"_link_sends_total")
			acks := linkVals(reg, family+"_link_acks_total")
			var total int64
			for link, n := range sends {
				if !strings.Contains(link, "->") {
					t.Errorf("malformed link label %q", link)
				}
				total += n
			}
			st := tr.Stats()
			if total != st.Sends {
				t.Errorf("per-link sends sum to %d, aggregate says %d", total, st.Sends)
			}
			for link, want := range map[string]int64{"0->1": 2, "0->2": 1, "1->3": 1} {
				if sends[link] != want {
					t.Errorf("link %s sends = %d, want %d", link, sends[link], want)
				}
				if acks[link] != want {
					t.Errorf("link %s acks = %d, want %d", link, acks[link], want)
				}
				if st.PerLink[link].Sends != want {
					t.Errorf("Stats.PerLink[%s].Sends = %d, want %d", link, st.PerLink[link].Sends, want)
				}
			}
		})
	}
}

func TestPerLinkRetransmitsAndDropsUnderChaos(t *testing.T) {
	for _, family := range families {
		t.Run(family, func(t *testing.T) {
			const nodes = 8
			reg := metrics.NewRegistry()
			c := newCollector()
			tr := assembleFamily(t, nodes, Options{
				Deliver: c.deliver,
				Metrics: reg,
				// Duplicates and delays leave deliveries in flight after
				// Broadcast returns: exactly what Quiesce is for.
				Chaos: &ChaosPlan{Seed: 7, Drop: 0.4, Dup: 0.3, DelayMax: 50 * time.Microsecond},
				Retransmit: RetransmitPolicy{
					Timeout: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond,
				},
			}, family)
			for round := 0; round < 4; round++ {
				tr.Broadcast("b", allItems(nodes))
			}
			// Nothing may still be counting between the reads below.
			tr.Quiesce()
			st := tr.Stats()
			if st.Drops == 0 || st.Retransmits == 0 {
				t.Fatalf("40%% drop produced no faults: %+v", st)
			}
			sum := func(vals map[string]int64) (n int64) {
				for _, v := range vals {
					n += v
				}
				return n
			}
			var perLink LinkStats
			for _, ls := range st.PerLink {
				perLink.Sends += ls.Sends
				perLink.Retransmits += ls.Retransmits
				perLink.Drops += ls.Drops
			}
			for _, c := range []struct {
				name             string
				aggregate, stats int64
			}{
				{"retransmits", st.Retransmits, perLink.Retransmits},
				{"drops", st.Drops, perLink.Drops},
				{"sends", st.Sends, perLink.Sends},
			} {
				if got := sum(linkVals(reg, family+"_link_"+c.name+"_total")); got != c.aggregate {
					t.Errorf("per-link %s sum to %d, aggregate says %d", c.name, got, c.aggregate)
				}
				if c.stats != c.aggregate {
					t.Errorf("Stats.PerLink %s sum to %d, aggregate says %d", c.name, c.stats, c.aggregate)
				}
			}
		})
	}
}

// Without a registry the transport still counts into a private one: Stats
// keeps working and no shared state leaks between transports.
func TestPrivateRegistriesAreIsolated(t *testing.T) {
	c1, c2 := newCollector(), newCollector()
	t1 := mustNew(t, 4, Options{Deliver: c1.deliver})
	t2 := mustNew(t, 4, Options{Deliver: c2.deliver})
	t1.Broadcast("b", allItems(4))
	if s1, s2 := t1.Stats(), t2.Stats(); s1.Sends == 0 || s2.Sends != 0 {
		t.Errorf("private counters leaked: t1=%+v t2=%+v", s1, s2)
	}
}

func TestShapeReflectsLiveness(t *testing.T) {
	const nodes = 8
	c := newCollector()
	tr := mustNew(t, nodes, Options{Deliver: c.deliver})
	sh := tr.Shape()
	if sh.Live != nodes || sh.Direct || sh.Depth != 3 {
		t.Errorf("healthy shape = %+v, want live=8 depth=3 tree mode", sh)
	}
	// Node 1's subtree (3 and its children) re-parents through node 0.
	tr.MarkDead(1)
	sh = tr.Shape()
	if sh.Live != nodes-1 {
		t.Errorf("live = %d after one death, want %d", sh.Live, nodes-1)
	}
	if sh.Parents[1] != -1 {
		t.Errorf("dead node 1 has parent %d, want -1", sh.Parents[1])
	}
	if sh.Parents[3] != 0 {
		t.Errorf("orphan 3 re-parented to %d, want 0", sh.Parents[3])
	}
	// Kill most of the cluster: broadcasts go direct.
	for n := 2; n < nodes; n++ {
		tr.MarkDead(n)
	}
	sh = tr.Shape()
	if !sh.Direct || sh.Live != 1 {
		t.Errorf("degraded shape = %+v, want direct mode with 1 live node", sh)
	}
}
