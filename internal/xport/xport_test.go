package xport

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// collector is a Deliver handler recording (node, payload) pairs.
type collector struct {
	mu  sync.Mutex
	got map[int][]any
}

func newCollector() *collector { return &collector{got: map[int][]any{}} }

func (c *collector) deliver(node int, payload any) {
	c.mu.Lock()
	c.got[node] = append(c.got[node], payload)
	c.mu.Unlock()
}

func mustNew(t *testing.T, nodes int, opts Options) *Transport {
	t.Helper()
	tr, err := New(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

func allItems(nodes int) []Item {
	items := make([]Item, 0, nodes-1)
	for n := 1; n < nodes; n++ {
		items = append(items, Item{Dst: n, Payload: n * 10})
	}
	return items
}

// checkDelivered asserts every non-root node received exactly its payload.
func checkDelivered(t *testing.T, c *collector, nodes int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := 1; n < nodes; n++ {
		ps := c.got[n]
		if len(ps) != 1 || ps[0] != n*10 {
			t.Errorf("node %d received %v, want exactly [%d]", n, ps, n*10)
		}
	}
	if len(c.got) != nodes-1 {
		t.Errorf("deliveries reached %d nodes, want %d", len(c.got), nodes-1)
	}
}

// A fault-free broadcast over the in-memory hub runs on the caller: every
// hop, relays of relays included, is delivered and acked inside the send
// that started it, so no goroutine exists while the payloads land.
func TestFaultFreeBroadcastRunsOnCaller(t *testing.T) {
	const nodes = 8
	c := newCollector()
	var base, most int
	tr := mustNew(t, nodes, Options{Deliver: func(node int, payload any) {
		most = max(most, runtime.NumGoroutine())
		c.deliver(node, payload)
	}})
	for round := range 3 {
		base, most = runtime.NumGoroutine(), 0
		tr.Broadcast("b", []Item{{Dst: nodes - 1, Payload: round}, {Dst: 1, Payload: round}, {Dst: 4, Payload: round}})
		if most != base {
			t.Fatalf("round %d: %d goroutines while delivering, %d before the broadcast", round, most, base)
		}
	}
	for _, n := range []int{1, 4, nodes - 1} {
		if got := c.got[n]; len(got) != 3 {
			t.Errorf("node %d received %v, want one payload per round", n, got)
		}
	}
	if st := tr.Stats(); st.Retransmits != 0 {
		t.Errorf("fault-free broadcasts retransmitted: %+v", st)
	}
}

func TestChaosDuplicatesAreDeduped(t *testing.T) {
	const nodes = 8
	c := newCollector()
	tr := mustNew(t, nodes, Options{
		Deliver: c.deliver,
		Chaos:   &ChaosPlan{Seed: 3, Dup: 0.6},
	})
	for round := 0; round < 4; round++ {
		tr.Broadcast("b", allItems(nodes))
	}
	c.mu.Lock()
	for n := 1; n < nodes; n++ {
		if len(c.got[n]) != 4 {
			t.Errorf("node %d received %d payloads, want 4 (duplicates must dedup)", n, len(c.got[n]))
		}
	}
	c.mu.Unlock()
	tr.Quiesce() // duplicate copies arrive on their own goroutines
	if st := tr.Stats(); st.Dedups == 0 {
		t.Errorf("60%% duplication produced no dedups: %+v", st)
	}
}

func TestPartitionHealsAndDelivers(t *testing.T) {
	const nodes = 4
	c := newCollector()
	tr := mustNew(t, nodes, Options{
		Deliver: c.deliver,
		// Link 0–1 is down for its first 3 transmissions: the first sends
		// to node 1 (and relays toward 3) must retransmit through the
		// outage until it heals.
		Chaos:      &ChaosPlan{Seed: 1, Partitions: []Partition{{A: 0, B: 1, AfterSends: 0, Sends: 3}}},
		Retransmit: RetransmitPolicy{Timeout: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
	})
	tr.Broadcast("b", allItems(nodes))
	checkDelivered(t, c, nodes)
	st := tr.Stats()
	if st.Drops < 3 || st.Retransmits < 3 {
		t.Errorf("outage window should cost >= 3 drops and retransmits: %+v", st)
	}
}

func TestRoutesNeverRelayThroughDeadNodes(t *testing.T) {
	alive := []bool{true, false, true, true, true, true, true, false}
	plan := PlanRoutes(alive, []int{3, 4, 6})
	for d, route := range plan.Routes {
		if route[len(route)-1] != d {
			t.Errorf("route to %d ends at %d", d, route[len(route)-1])
		}
		for _, hop := range route {
			if !alive[hop] {
				t.Errorf("route to %d relays through dead node %d: %v", d, hop, route)
			}
		}
	}
	// Orphans: 3 and 4 (parent 1 dead).
	if plan.Reparents != 2 {
		t.Errorf("reparents = %d, want 2", plan.Reparents)
	}
	if plan.Direct {
		t.Error("6/8 alive should keep the tree")
	}
}

// Chaos decisions must be pure functions of identity — independent of call
// order and of wall time.
func TestChaosDecisionsDeterministic(t *testing.T) {
	c := &ChaosPlan{Seed: 42, Drop: 0.3, Dup: 0.3, Reorder: 0.3, DelayMax: time.Millisecond}
	read := func() []Fate {
		var out []Fate
		for seq := uint64(0); seq < 64; seq++ {
			for attempt := 1; attempt <= 3; attempt++ {
				out = append(out, c.Decide(0, 5, ClassData, seq, attempt, 0))
			}
		}
		return out
	}
	a, b := read(), read()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across reads: %+v vs %+v", i, a[i], b[i])
		}
	}
	// The fates must actually vary (the hash is not constant).
	drops := 0
	for _, f := range a {
		if f.Drop {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("drop rolls degenerate: %d/%d", drops, len(a))
	}
}

func TestChaosPlanValidate(t *testing.T) {
	bad := []*ChaosPlan{
		{Drop: 1.0},
		{Dup: -0.1},
		{Reorder: 1.5},
		{DelayMax: -time.Second},
		{Partitions: []Partition{{A: 0, B: 1, AfterSends: -1}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("plan %d should fail validation: %+v", i, c)
		}
	}
	ok := &ChaosPlan{Seed: 1, Drop: 0.5, Dup: 0.5, Reorder: 0.9, DelayMax: time.Millisecond}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (*ChaosPlan)(nil).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

// New validates its plan up front: a Drop = 1 plan can never deliver, so
// the transport is refused instead of hanging its first broadcast.
func TestNewRejectsUndeliverablePlan(t *testing.T) {
	if tr, err := New(2, Options{Chaos: &ChaosPlan{Drop: 1.0}}); err == nil {
		_ = tr.Close()
		t.Fatal("New accepted a Drop = 1 plan")
	}
}

// Deliver is optional: without it a broadcast still completes hop by hop,
// and the sender's counters see every send.
func TestBroadcastWithoutDeliver(t *testing.T) {
	const nodes = 8
	tr := mustNew(t, nodes, Options{})
	tr.Broadcast("nodeliver", allItems(nodes))
	if st := tr.Stats(); st.Sends < nodes-1 {
		t.Errorf("sends = %d, want >= %d", st.Sends, nodes-1)
	}
}

func TestRetransmitPolicyWaitForCaps(t *testing.T) {
	rp := RetransmitPolicy{Timeout: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := rp.WaitFor(i + 1); got != w {
			t.Errorf("waitFor(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Huge attempt counts must stay at the cap, not wrap.
	for _, attempt := range []int{32, 63, 64, 1 << 20} {
		if got := rp.WaitFor(attempt); got != 8*time.Millisecond {
			t.Errorf("waitFor(%d) = %v, want cap", attempt, got)
		}
	}
	var zero RetransmitPolicy
	if zero.WaitFor(1) != defaultTimeout || zero.WaitFor(1000) != defaultMaxBackoff {
		t.Errorf("zero policy defaults wrong: %v, %v", zero.WaitFor(1), zero.WaitFor(1000))
	}
}

// Full-chaos soak: drops + dups + delays + reorders + a partition, many
// rounds, and delivery still happens exactly once per payload per round.
func TestChaosSoakDeliversExactlyOnce(t *testing.T) {
	const nodes, rounds = 8, 6
	c := newCollector()
	tr := mustNew(t, nodes, Options{
		Deliver: c.deliver,
		Chaos: &ChaosPlan{
			Seed: 99, Drop: 0.25, Dup: 0.25, Reorder: 0.3, DelayMax: 100 * time.Microsecond,
			Partitions: []Partition{{A: 0, B: 2, AfterSends: 2, Sends: 4}},
		},
		Retransmit: RetransmitPolicy{Timeout: 300 * time.Microsecond, MaxBackoff: 3 * time.Millisecond},
	})
	for round := 0; round < rounds; round++ {
		tr.Broadcast("soak", allItems(nodes))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var got []int
	for n, ps := range c.got {
		if len(ps) != rounds {
			t.Errorf("node %d received %d payloads, want %d", n, len(ps), rounds)
		}
		got = append(got, n)
	}
	sort.Ints(got)
	if len(got) != nodes-1 {
		t.Errorf("deliveries reached nodes %v, want all of 1..%d", got, nodes-1)
	}
}

// A frame stamped with an older delivery generation than the link has seen
// is a completed duplicate: swallowed, counted, re-acked. This is what
// makes a straggler that outlives a Recycle harmless.
func TestStaleGenerationIsDuplicate(t *testing.T) {
	c := newCollector()
	tr := mustNew(t, 2, Options{Deliver: c.deliver})
	tr.Broadcast("fresh", []Item{{Dst: 1, Payload: 10}})
	stale := &Frame{Kind: KindData, Src: 0, Dst: 1, Seq: 99, Gen: 0, Route: []int{1}, Tag: "stale"}
	tr.eps[1].receive(stale)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.got[1]) != 1 {
		t.Fatalf("stale-generation frame was delivered: %v", c.got[1])
	}
	if tr.Stats().Dedups != 1 {
		t.Fatalf("stale frame not counted as a dedup: %+v", tr.Stats())
	}
}

// A transport that is never recycled keeps a bounded dedup history: once
// every broadcast has been delivered, no link remembers a single sequence
// number, duplicates and reordering included.
func TestDedupHistoryStaysBounded(t *testing.T) {
	for name, chaos := range map[string]*ChaosPlan{
		"fault-free":  nil,
		"dup+reorder": {Seed: 7, Dup: 0.3, Reorder: 0.3},
	} {
		t.Run(name, func(t *testing.T) {
			const nodes, rounds = 6, 500
			tr := mustNew(t, nodes, Options{Chaos: chaos,
				Retransmit: RetransmitPolicy{Timeout: 300 * time.Microsecond, MaxBackoff: 3 * time.Millisecond}})
			for round := 0; round < rounds; round++ {
				tr.Broadcast("b", allItems(nodes))
			}
			tr.Quiesce()
			for n, e := range tr.eps {
				e.mu.Lock()
				for src, s := range e.seen {
					if len(s.seqs) != 0 || s.low == 0 {
						t.Errorf("node %d, link from %d: low %d, %d seqs remembered after %d rounds", n, src, s.low, len(s.seqs), rounds)
					}
				}
				e.mu.Unlock()
			}
			if st := tr.Stats(); chaos != nil && st.Dedups == 0 {
				t.Errorf("30%% duplication produced no dedups: %+v", st)
			}
		})
	}
}
