package xport

import (
	"fmt"
	"sort"
	"sync"
)

// Hub is the in-memory fabric: a switchboard connecting the endpoints of
// one process. Send hands the frame to the destination's receiver
// synchronously in the sender's goroutine — no sockets, no timers, no
// reordering — so traffic over a hub is as deterministic as a function
// call. It is the fabric of the in-process assembly (New), of the
// seed-matrix tests, and of the loopback half of the loopback-vs-TCP
// benchmark.
type Hub struct {
	// Codec, when set, replaces every frame by its encode/decode round trip
	// and reports the encoded size; internal/wire's NewHub installs the
	// frame codec here so a frame-format bug cannot hide behind in-memory
	// shortcuts. Set it before the first Send.
	Codec func(*Frame) (*Frame, int, error)

	mu    sync.Mutex
	ports map[int]*hubPort
}

// NewHub creates an empty switchboard.
func NewHub() *Hub { return &Hub{ports: map[int]*hubPort{}} }

// Fabric returns the hub port for node self, creating it on first use.
func (h *Hub) Fabric(self int) Fabric {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.ports[self]
	if p == nil {
		p = &hubPort{hub: h, self: self, traffic: map[int]*PeerStatus{}}
		h.ports[self] = p
	}
	return p
}

// hubPort is one node's attachment; its fields are guarded by hub.mu.
type hubPort struct {
	hub     *Hub
	self    int
	recv    func(*Frame)
	closed  bool
	traffic map[int]*PeerStatus // per-peer message/byte counts
}

func (p *hubPort) SetReceiver(fn func(*Frame)) {
	p.hub.mu.Lock()
	p.recv = fn
	p.hub.mu.Unlock()
}

// row returns peer's traffic row, creating it; caller holds hub.mu.
func (p *hubPort) row(peer int) *PeerStatus {
	ps := p.traffic[peer]
	if ps == nil {
		ps = &PeerStatus{Node: peer, Addr: "local", Connected: true, Reconnects: 1}
		p.traffic[peer] = ps
	}
	return ps
}

func (p *hubPort) Send(dst int, f *Frame) error {
	size := 0
	if codec := p.hub.Codec; codec != nil {
		var err error
		if f, size, err = codec(f); err != nil {
			return fmt.Errorf("xport: hub codec round trip: %w", err)
		}
	}
	p.hub.mu.Lock()
	peer := p.hub.ports[dst]
	if p.closed || peer == nil || peer.closed || peer.recv == nil {
		p.hub.mu.Unlock()
		return fmt.Errorf("xport: hub link %d->%d is not up", p.self, dst)
	}
	out, in := p.row(dst), peer.row(p.self)
	out.MsgsSent++
	out.BytesSent += int64(size)
	in.MsgsRecv++
	in.BytesRecv += int64(size)
	recv := peer.recv
	p.hub.mu.Unlock()

	recv(f)
	return nil
}

func (p *hubPort) Peers() []PeerStatus {
	p.hub.mu.Lock()
	defer p.hub.mu.Unlock()
	out := make([]PeerStatus, 0, len(p.hub.ports))
	for id := range p.hub.ports {
		if id != p.self {
			out = append(out, *p.row(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (p *hubPort) Close() error {
	p.hub.mu.Lock()
	p.closed = true
	p.hub.mu.Unlock()
	return nil
}
