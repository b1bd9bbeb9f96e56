package wire

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/xport"
)

// Proxy is the socket-level chaos injector: a TCP forwarder that decodes
// frames off the stream and applies an xport.ChaosPlan's pure per-frame
// decisions — ChaosPlan.Decide, the function the in-process chaos fabric
// (xport.WithChaos) calls — to real traffic. Place one in front of an idxnode listener and
// the mesh's retransmission/re-parenting machinery is exercised by genuine
// loss between processes:
//
//	drop      the frame is read and discarded; the sender's ack timeout
//	          fires and the hop retransmits
//	delay     forwarding pauses, preserving order (TCP semantics) but
//	          stretching the hop's latency into retransmission territory
//	partition cut windows on the directed pair's lifetime frame count, so
//	          a partition starves data and acks between the pair for a
//	          bounded frame window, then heals — exactly the in-process cut
//	          semantics
//
// A duplicate verdict is ignored: the stream between two sockets has no
// way to repeat a frame that the dedup layer would not see anyway.
//
// The proxy cannot see the sender's attempt counter (that is private to
// the mesh), so it feeds the pair's lifetime frame count as the decision's
// attempt salt: every retransmission presents a fresh identity and rolls a
// fresh fate, preserving the eventual-delivery guarantee Drop < 1 promises.
//
// Handshake frames are subject to the plan like everything else — a
// partition window can sever connection establishment itself, which the
// dialer's capped-backoff reconnect absorbs.
type Proxy struct {
	ln      net.Listener
	target  string
	plan    *xport.ChaosPlan
	dropped atomic.Int64

	mu    sync.Mutex
	count map[[2]int]int64
	done  chan struct{}
}

// NewProxy listens on listen and forwards framed traffic to target,
// applying plan to every frame in both directions. A nil plan forwards
// faithfully.
func NewProxy(listen, target string, plan *xport.ChaosPlan) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, plan: plan, count: map[[2]int]int64{}, done: make(chan struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the dialing side should
// be pointed at instead of the real peer.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Dropped returns the number of frames the plan has discarded so far.
func (p *Proxy) Dropped() int64 { return p.dropped.Load() }

// Close stops accepting and severs existing flows.
func (p *Proxy) Close() error {
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	return p.ln.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

// serve forwards one client connection through to the target.
func (p *Proxy) serve(client net.Conn) {
	server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		_ = client.Close()
		return
	}
	done := make(chan struct{}, 2)
	go func() { p.pump(server, bufio.NewReader(client)); done <- struct{}{} }()
	go func() { p.pump(client, bufio.NewReader(server)); done <- struct{}{} }()
	select {
	case <-done:
	case <-p.done:
	}
	_ = client.Close()
	_ = server.Close()
}

// pump forwards frames one direction, consulting the plan per frame.
func (p *Proxy) pump(dst io.Writer, src *bufio.Reader) {
	for {
		f, err := ReadFrame(src)
		if err != nil {
			return
		}
		n := p.bump(f.Src, f.Dst)
		fate := p.plan.Decide(f.Src, f.Dst, xport.ClassOf(f.Kind), f.Seq, int(n%1021)+1, n)
		if fate.Drop {
			p.dropped.Add(1)
			continue
		}
		if fate.Delay > 0 {
			select {
			case <-time.After(fate.Delay):
			case <-p.done:
				return
			}
		}
		if _, err := dst.Write(EncodeFrame(f)); err != nil {
			return
		}
	}
}

// bump advances the directed pair's lifetime frame counter — the clock
// partition windows run on — and returns its pre-increment value.
func (p *Proxy) bump(src, dst int) int64 {
	k := [2]int{src, dst}
	p.mu.Lock()
	n := p.count[k]
	p.count[k] = n + 1
	p.mu.Unlock()
	return n
}
