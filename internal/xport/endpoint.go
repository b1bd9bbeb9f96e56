package xport

import (
	"fmt"
	"sync"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
)

// EndpointConfig configures one node's Endpoint. It is the constructor
// surface the two assemblies (New in-process, internal/wire.NewMesh over
// sockets) build on, not a user-facing option set.
type EndpointConfig struct {
	// Self is this endpoint's node id; node 0 is the broadcast origin.
	Self int
	// Nodes is the tree size (node ids 0..Nodes-1).
	Nodes int
	// Fabric carries frames to the other endpoints; required.
	Fabric Fabric
	// Retransmit tunes the per-hop ack-timeout ladder.
	Retransmit RetransmitPolicy
	// Prof records send/recv/retransmit spans; nil disables profiling.
	Prof *obs.Recorder
	// Metrics receives the counter families; nil keeps them in a private
	// registry so Stats always works.
	Metrics *metrics.Registry
	// Family prefixes the metric families and names the spans' component:
	// "xport" for the in-process assembly, "wire" for the socket mesh.
	Family string
	// Deliver receives, exactly once each, the reliable frames that end at
	// this node: a broadcast payload at its final destination, and the
	// Exec/Result frames the endpoint sequences for the layer above without
	// interpreting. It is passed the endpoint because frames can arrive
	// before NewEndpoint has returned it. May be called from fabric
	// goroutines; must not block.
	Deliver func(e *Endpoint, f *Frame)

	// share makes the new endpoint record into (and quiesce with) an
	// existing one's counters and goroutine tracker: the in-process
	// assembly is one transport, not N.
	share *Endpoint
}

// Endpoint is one node of the reliable broadcast tree: the single
// implementation of per-link sequencing, dedup, ack-wait/retransmission,
// tree routing with re-parenting and delivery generations, over whatever
// Fabric it is given. Broadcasts from node 0 route through the binary tree
// (tree.go); every hop is acked and retransmitted on the RetransmitPolicy
// ladder; receivers deduplicate per link; and acks chain leaf-to-root — a
// relay acks upstream only after its onward hop was acked — so Broadcast
// returning means every destination has delivered.
//
// One Endpoint runs per node. The caller serializes Broadcast, MarkDead,
// MarkAlive and Recycle against each other (internal/rt's issuance lock
// does); everything underneath is concurrent.
type Endpoint struct {
	self    int
	nodes   int
	fab     Fabric
	rp      RetransmitPolicy
	prof    *obs.Recorder
	family  string
	deliver func(*Endpoint, *Frame)
	mx      *endpointMetrics
	track   *tracker

	mu      sync.Mutex
	alive   []bool
	gen     uint64           // delivery generation, bumped by Recycle
	nextSeq map[int]uint64   // next sequence number per outbound link (by peer)
	seen    map[int]*seenSet // dedup history per inbound link (by peer)
	ackWait map[waitKey]chan struct{}

	closed    chan struct{}
	closeOnce sync.Once
}

// seenSet is one inbound link's dedup history for one generation. Every
// sequence number below low has been received and processed; seqs holds the
// ones at or above it that have been received, true while the frame is still
// being processed. A link's sequence numbers are dense from 0, so low follows
// the processed frames and seqs stays as small as the reordering window.
type seenSet struct {
	gen  uint64
	low  uint64
	seqs map[uint64]bool
}

// waitKey names what a sender is waiting for: the ack of (peer link, gen,
// seq).
type waitKey struct {
	peer int
	gen  uint64
	seq  uint64
}

// NewEndpoint creates one node's endpoint and installs its frame receiver
// on the fabric.
func NewEndpoint(cfg EndpointConfig) (*Endpoint, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("xport: transport requires >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		return nil, fmt.Errorf("xport: endpoint self %d out of range [0, %d)", cfg.Self, cfg.Nodes)
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("xport: EndpointConfig.Fabric is required")
	}
	e := &Endpoint{
		self: cfg.Self, nodes: cfg.Nodes, fab: cfg.Fabric, rp: cfg.Retransmit,
		prof: cfg.Prof, family: cfg.Family, deliver: cfg.Deliver,
		alive:   make([]bool, cfg.Nodes),
		gen:     1,
		nextSeq: map[int]uint64{},
		seen:    map[int]*seenSet{},
		ackWait: map[waitKey]chan struct{}{},
		closed:  make(chan struct{}),
	}
	if cfg.share != nil {
		e.mx, e.track = cfg.share.mx, cfg.share.track
	} else {
		e.mx, e.track = newEndpointMetrics(cfg.Metrics, cfg.Family), newTracker()
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	if a, ok := cfg.Fabric.(interface{ attach(*Endpoint) }); ok {
		a.attach(e)
	}
	cfg.Fabric.SetReceiver(e.receive)
	return e, nil
}

// Nodes returns the tree size.
func (e *Endpoint) Nodes() int { return e.nodes }

// Self returns this endpoint's node id.
func (e *Endpoint) Self() int { return e.self }

// Peers returns the fabric's peer table for /statusz.
func (e *Endpoint) Peers() []PeerStatus { return e.fab.Peers() }

// Done is closed when the endpoint closes.
func (e *Endpoint) Done() <-chan struct{} { return e.closed }

// Go runs fn on a goroutine Quiesce waits for.
func (e *Endpoint) Go(fn func()) { e.track.Go(fn) }

// MarkDead removes a node from routing: future broadcasts re-parent its
// orphaned subtree onto surviving ancestors. In-flight messages are not
// recalled.
func (e *Endpoint) MarkDead(node int) { e.setAlive(node, false) }

// MarkAlive readmits a node to routing: the next broadcast re-parents its
// subtree back toward the denser original tree shape.
func (e *Endpoint) MarkAlive(node int) { e.setAlive(node, true) }

func (e *Endpoint) setAlive(node int, alive bool) {
	if node < 0 || node >= e.nodes {
		return
	}
	e.mu.Lock()
	e.alive[node] = alive
	e.mu.Unlock()
}

// liveness snapshots the routing view.
func (e *Endpoint) liveness() []bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]bool(nil), e.alive...)
}

// Shape reports the broadcast tree's current shape under the endpoint's
// liveness snapshot.
func (e *Endpoint) Shape() TreeShape {
	return ShapeOf(e.liveness())
}

// Stats snapshots the transport counters. The values are read from the
// metrics registry the endpoint records into — there is no second
// bookkeeping path — and the per-link table is a deep copy, so iterating it
// while senders run is race-free.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Sends:            e.mx.sends.Value(),
		Retransmits:      e.mx.retransmits.Value(),
		Drops:            e.mx.drops.Value(),
		Dedups:           e.mx.dedups.Value(),
		Reparents:        e.mx.reparents.Value(),
		DirectBroadcasts: e.mx.directs.Value(),
		PerLink:          e.mx.linkSnapshot(),
	}
}

// Quiesce waits, locally, for every goroutine the transport spawned —
// relay hops, the layer above's Go calls, a chaos fabric's delayed and
// duplicate deliveries — to finish. After it returns no straggler can touch
// the counters or the delivery state until the caller sends again.
func (e *Endpoint) Quiesce() { e.track.Wait() }

// Recycle ends a delivery session: it quiesces, then bumps the delivery
// generation and restarts this endpoint's sequence numbers, so a transport
// reused across many scheduler jobs keeps no per-job history. Peers need no
// round trip — a receiver resets a link's dedup set when it sees a newer
// generation, and a frame of an older one is a stale duplicate. Counters
// and liveness persist: liveness is a property of the machine, not of one
// job.
func (e *Endpoint) Recycle() {
	e.Quiesce()
	e.mu.Lock()
	e.gen++
	e.nextSeq = map[int]uint64{}
	e.seen = map[int]*seenSet{}
	e.mu.Unlock()
}

// Close stops retransmission, quiesces and closes the fabric.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	e.Quiesce()
	return e.fab.Close()
}

// Broadcast ships every item from node 0 to its destination through the
// broadcast tree and blocks until each payload has been delivered exactly
// once. Destinations must be live, non-zero nodes — the caller owns the
// liveness snapshot (node-0-local and dead-node payloads never enter the
// transport).
func (e *Endpoint) Broadcast(tag string, items []Item) {
	e.BroadcastTraced(obs.TraceRef{}, tag, items)
}

// BroadcastTraced is Broadcast with a span context riding the frame
// headers: every hop of item i becomes a send span parented on tc (with
// recv and retransmit children), so a traced job's broadcast fan-out shows
// up in its span tree hop by hop. A zero tc is plain Broadcast.
func (e *Endpoint) BroadcastTraced(tc obs.TraceRef, tag string, items []Item) {
	if len(items) == 0 {
		return
	}
	alive := e.liveness()
	dsts := make([]int, len(items))
	for i, it := range items {
		dsts[i] = it.Dst
	}
	plan := PlanRoutes(alive, dsts)
	e.mx.reparents.Add(int64(plan.Reparents))
	if plan.Direct {
		e.mx.directs.Inc()
	}
	depth := 0
	for _, route := range plan.Routes {
		depth = max(depth, len(route))
	}
	e.mx.treeDepth.Set(int64(depth))

	// Every item's first transmission leaves from the calling goroutine.
	// Over the in-memory hub a hop whose receiver delivers or relays at once
	// is acked before Send returns, so a fault-free broadcast completes here
	// without starting a goroutine; only hops still unacked wait, each on
	// its own goroutine.
	hops := make([]*hop, len(items))
	for i, it := range items {
		f := &Frame{Kind: KindData, Key: uint64(i + 1), TC: tc,
			Route: plan.Routes[it.Dst], Tag: tag}
		if b, ok := it.Payload.([]byte); ok {
			f.Body = b
		} else {
			f.local = it.Payload
		}
		hops[i] = e.transmit(f.Route[0], f)
	}
	var wg sync.WaitGroup
	for _, h := range hops {
		if h.acked() {
			e.complete(h, nil)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.complete(h, nil)
		}()
	}
	wg.Wait()
}

// SendReliable sequences f on the (self, dst) link and transmits it until
// the peer acks, retransmitting on the capped-backoff ladder. A frame
// without a generation (one this endpoint originates rather than relays)
// is stamped with the current one. It reports false if the endpoint closed
// or stop fired first (a nil stop never fires).
func (e *Endpoint) SendReliable(dst int, f *Frame, stop <-chan struct{}) bool {
	return e.complete(e.transmit(dst, f), stop)
}

// hop is one reliable frame between its first transmission and its ack.
type hop struct {
	f     *Frame
	key   waitKey
	ack   chan struct{}
	lc    *linkCounters
	start int64 // profiler clock at the first transmission
}

// acked reports, without blocking, whether the hop's ack has arrived.
func (h *hop) acked() bool {
	select {
	case <-h.ack:
		return true
	default:
		return false
	}
}

// transmit is SendReliable's first half: sequence f on the (self, dst)
// link, register its ack wait and send it once. The ack may already have
// arrived when it returns. complete must follow.
func (e *Endpoint) transmit(dst int, f *Frame) *hop {
	f.Src, f.Dst = e.self, dst
	h := &hop{f: f, ack: make(chan struct{})}
	e.mu.Lock()
	if f.Gen == 0 {
		f.Gen = e.gen
	}
	f.Seq = e.nextSeq[dst]
	e.nextSeq[dst] = f.Seq + 1
	h.key = waitKey{peer: dst, gen: f.Gen, seq: f.Seq}
	e.ackWait[h.key] = h.ack
	e.mu.Unlock()

	h.lc = e.mx.link(link{src: e.self, dst: dst})
	e.mx.sends.Inc()
	h.lc.sends.Inc()
	if e.prof != nil {
		h.start = e.prof.Now()
	}
	_ = e.fab.Send(dst, f) // a failed send is a lost frame: the timeout recovers it
	return h
}

// complete is SendReliable's second half: wait for h's ack, retransmitting
// on the ladder, then count the ack and record the send span.
func (e *Endpoint) complete(h *hop, stop <-chan struct{}) bool {
	if !e.await(h, stop) {
		return false
	}
	e.mx.acks.Inc()
	h.lc.acks.Inc()
	if e.prof != nil {
		e.prof.SpanTC(h.f.hopTC(), e.self, obs.StageSend, e.family, e.spanTag(h.f), domain.Point{}, h.start, e.prof.Now())
	}
	return true
}

// spanTag labels a hop's spans: the launch tag plus the payload byte count.
func (e *Endpoint) spanTag(f *Frame) string { return fmt.Sprintf("%s#b=%d", f.Tag, len(f.Body)) }

// await waits until h's ack arrives, retransmitting its frame (already
// sent once) on each timeout. It is the one ack-wait/retransmit loop in the
// tree and clears h's registration on return. False means closed or
// stopped.
func (e *Endpoint) await(h *hop, stop <-chan struct{}) bool {
	defer func() {
		e.mu.Lock()
		delete(e.ackWait, h.key)
		e.mu.Unlock()
	}()
	f := h.f
	for attempt := 1; ; attempt++ {
		if h.acked() {
			return true
		}
		timer := time.NewTimer(e.rp.WaitFor(attempt))
		select {
		case <-h.ack:
			timer.Stop()
			return true
		case <-e.closed:
			timer.Stop()
			return false
		case <-stop:
			timer.Stop()
			return false
		case <-timer.C:
		}
		e.mx.retransmits.Inc()
		h.lc.retransmits.Inc()
		if e.prof != nil {
			e.prof.MarkTC(f.hopTC().Child(uint64(1+attempt)), e.self, obs.StageRetransmit, e.family, f.Tag, domain.Point{}, e.prof.Now())
		}
		_ = e.fab.Send(f.Dst, f)
	}
}

// signal completes the wait registered under key; late or duplicate acks
// find nothing and are ignored.
func (e *Endpoint) signal(key waitKey) {
	e.mu.Lock()
	ack := e.ackWait[key]
	delete(e.ackWait, key)
	e.mu.Unlock()
	if ack != nil {
		close(ack)
	}
}

// receive is the fabric's receive callback: the endpoint's inbound
// dispatch. Runs on fabric goroutines; it never blocks on the endpoint's
// own reliable sends except via tracked goroutines.
func (e *Endpoint) receive(f *Frame) {
	switch f.Kind {
	case KindData, KindExec, KindResult:
		e.handleReliable(f)
	case KindAck:
		e.signal(waitKey{peer: f.Src, gen: f.Gen, seq: f.Seq})
	}
}

// dedupState classifies an inbound reliable frame against the link's
// delivery history.
type dedupState int

const (
	frameFresh      dedupState = iota // first sighting: process it
	frameDupDone                      // processed before: just re-ack
	frameDupPending                   // original still being processed: stay silent
)

// dedup records (link, gen, seq) and classifies the frame. A frame from a
// newer generation resets the link's history (the sender recycled); an
// older generation's frame is a completed duplicate. A fresh frame stays
// marked in flight until dedupDone — re-acking a duplicate before the
// original finished would let the upstream sender report delivery that
// has not happened yet (Broadcast's end-to-end guarantee rides on relay
// acks being deferred until the downstream hop acked).
func (e *Endpoint) dedup(f *Frame) dedupState {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.seen[f.Src]
	switch {
	case s == nil || f.Gen > s.gen:
		s = &seenSet{gen: f.Gen, seqs: map[uint64]bool{}}
		e.seen[f.Src] = s
	case f.Gen < s.gen || f.Seq < s.low:
		return frameDupDone
	}
	if pending, dup := s.seqs[f.Seq]; dup {
		if pending {
			return frameDupPending
		}
		return frameDupDone
	}
	s.seqs[f.Seq] = true
	return frameFresh
}

// dedupDone clears the frame's in-flight mark, so later duplicates re-ack,
// and moves the link's low-water mark past every processed frame.
func (e *Endpoint) dedupDone(f *Frame) {
	e.mu.Lock()
	if s := e.seen[f.Src]; s != nil && s.gen == f.Gen {
		s.seqs[f.Seq] = false
		for pending, ok := s.seqs[s.low]; ok && !pending; pending, ok = s.seqs[s.low] {
			delete(s.seqs, s.low)
			s.low++
		}
	}
	e.mu.Unlock()
}

// ack acknowledges f's hop on the reverse link.
func (e *Endpoint) ack(f *Frame) {
	_ = e.fab.Send(f.Src, &Frame{Kind: KindAck, Src: e.self, Dst: f.Src, Seq: f.Seq, Gen: f.Gen})
}

// handleReliable delivers or relays one sequenced frame, exactly once. The
// inbound hop is acked only once the payload has actually landed:
// immediately where the route ends, after the onward hop's ack for a relay.
// That chains acks leaf-to-root, so a relay's send span closes before its
// upstream sender is released. (Exec and Result frames always end at their
// first hop; dedup is what keeps a retransmitted request from running
// twice.)
func (e *Endpoint) handleReliable(f *Frame) {
	switch e.dedup(f) {
	case frameDupPending:
		e.mx.dedups.Inc()
		return // the original's completion will trigger the ack
	case frameDupDone:
		e.mx.dedups.Inc()
		e.ack(f)
		return
	}
	if e.prof != nil {
		e.prof.MarkTC(f.hopTC().Child(1), e.self, obs.StageRecv, e.family, e.spanTag(f), domain.Point{}, e.prof.Now())
	}
	if len(f.Route) <= 1 {
		if e.deliver != nil {
			e.deliver(e, f)
		}
		e.dedupDone(f)
		e.ack(f)
		return
	}
	// Relay with our own sequence on the next link. The first transmission
	// goes out here; if the onward ack is already in (an in-memory hop that
	// delivered at once) the relay finishes here too, otherwise the wait
	// moves to a tracked goroutine, since it must not stall the fabric's
	// read loop.
	next := &Frame{Kind: f.Kind, Gen: f.Gen, Key: f.Key, TC: f.TC,
		Route: f.Route[1:], Tag: f.Tag, Body: f.Body, local: f.local}
	h := e.transmit(next.Route[0], next)
	relay := func() {
		if e.complete(h, nil) {
			e.dedupDone(f)
			e.ack(f)
		}
	}
	if h.acked() {
		relay()
		return
	}
	e.track.Go(relay)
}

// tracker counts the goroutines a transport has in flight so Quiesce can
// wait for all of them. Unlike a sync.WaitGroup it may be waited on and
// added to in any order: a straggler spawning work while Quiesce waits is
// exactly the case it exists for.
type tracker struct {
	mu   sync.Mutex
	n    int
	idle *sync.Cond
}

func newTracker() *tracker {
	t := &tracker{}
	t.idle = sync.NewCond(&t.mu)
	return t
}

// Go runs fn on a tracked goroutine.
func (t *tracker) Go(fn func()) {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
	go func() {
		defer func() {
			t.mu.Lock()
			if t.n--; t.n == 0 {
				t.idle.Broadcast()
			}
			t.mu.Unlock()
		}()
		fn()
	}()
}

// Wait blocks until no tracked goroutine is running.
func (t *tracker) Wait() {
	t.mu.Lock()
	for t.n > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}
