package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// TCP fabric: real sockets between mesh peers.
//
// Topology and handshake. Every process runs one listener. Node 0 (the
// launching side) is configured with the full worker address table and
// dials every worker; its Hello carries its node id, serving epoch and the
// address table, so a worker only ever needs its own -listen flag — it
// learns who its siblings are from the handshake and dials them lazily
// when a broadcast route makes it a relay. The accepter answers with a
// Welcome carrying its id and epoch. Epoch rule: a fabric adopts the
// highest epoch it has seen and refuses Hellos from lower ones, so a
// stale launcher that restarts with a bumped epoch can never be shadowed
// by its dead predecessor's half-open connections.
//
// Connection management. Each known peer has one manager goroutine owning
// at most one live connection (preferring the most recently established —
// simultaneous dials from both ends converge because frames are idempotent
// above). Dialing retries with capped exponential backoff; every
// establishment increments wire_peer_reconnects_total.
//
// Write coalescing. Sends enqueue onto the peer's channel; the writer
// drains the channel into a bufio.Writer and flushes only when the queue
// is momentarily empty, so a burst of frames (a broadcast fan-out, an
// ack+relay pair) leaves in one syscall.

// TCPConfig configures a TCP fabric.
type TCPConfig struct {
	// Self is this process's mesh node id.
	Self int
	// Listen is the local listen address (host:port; :0 picks a port).
	Listen string
	// Peers maps node ids to dial addresses. Node 0 passes the full
	// worker table; workers usually pass nothing and learn it from the
	// handshake.
	Peers map[int]string
	// Epoch is the serving epoch announced in handshakes; 0 on workers
	// means "adopt the launcher's".
	Epoch uint64
	// DialBackoff is the initial redial delay (doubled per failure, capped
	// at 64×); zero defaults to 20ms.
	DialBackoff time.Duration
	// HandshakeTimeout bounds the Hello/Welcome exchange on a fresh
	// connection; zero defaults to 5s. Lower it when the path is lossy
	// enough that abandoned handshakes must be cheap (the chaos proxy
	// drops handshake frames like any other).
	HandshakeTimeout time.Duration
}

// TCPFabric is the socket implementation of Fabric.
type TCPFabric struct {
	self      int
	ln        net.Listener
	backoff   time.Duration
	handshake time.Duration

	mu    sync.Mutex
	epoch uint64
	peers map[int]*tcpPeer
	addrs map[int]string
	recv  func(*Frame)
	mx    *wireMetrics
	done  chan struct{}
}

// tcpPeer is the per-peer connection manager state.
type tcpPeer struct {
	id  int
	out chan *Frame

	mu      sync.Mutex
	conn    net.Conn // current live conn, nil while down
	started bool     // manager goroutine running
}

const peerQueue = 256

// NewTCP opens the listener and returns the fabric. Dialing is lazy: the
// first Send to a peer starts its manager.
func NewTCP(cfg TCPConfig) (*TCPFabric, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
	}
	backoff := cfg.DialBackoff
	if backoff <= 0 {
		backoff = 20 * time.Millisecond
	}
	handshake := cfg.HandshakeTimeout
	if handshake <= 0 {
		handshake = 5 * time.Second
	}
	t := &TCPFabric{
		self:      cfg.Self,
		ln:        ln,
		backoff:   backoff,
		handshake: handshake,
		epoch:     cfg.Epoch,
		peers:     map[int]*tcpPeer{},
		addrs:     map[int]string{},
		done:      make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		t.addrs[id] = addr
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's bound address (useful with Listen ":0").
func (t *TCPFabric) Addr() string { return t.ln.Addr().String() }

func (t *TCPFabric) attach(mx *wireMetrics) {
	t.mu.Lock()
	t.mx = mx
	t.mu.Unlock()
}

func (t *TCPFabric) SetReceiver(fn func(*Frame)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

func (t *TCPFabric) closed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Send enqueues f for peer dst, starting its connection manager on first
// use. The queue is bounded; when it is full Send blocks while the peer is
// connected (backpressure to the retransmission layer, which is already
// pacing on ack timeouts) and drops f once it is not: nothing drains a dead
// peer's queue, and a sender blocked on it would hold a Quiesce waiting for
// that sender forever. A dropped frame is a lost frame to the layer above,
// which retransmits it or gives up on its own clock.
func (t *TCPFabric) Send(dst int, f *Frame) error {
	if t.closed() {
		return fmt.Errorf("wire: tcp fabric %d closed", t.self)
	}
	p, err := t.peer(dst, true)
	if err != nil {
		return err
	}
	select {
	case p.out <- f:
		return nil
	default:
	}
	tick := time.NewTicker(t.backoff)
	defer tick.Stop()
	for {
		select {
		case p.out <- f:
			return nil
		case <-t.done:
			return fmt.Errorf("wire: tcp fabric %d closed", t.self)
		case <-tick.C:
			if !p.connected() {
				return fmt.Errorf("wire: peer %d down and its send queue full: frame dropped", dst)
			}
		}
	}
}

// peer returns dst's manager, creating (and, with start, running) it.
func (t *TCPFabric) peer(dst int, start bool) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[dst]
	if p == nil {
		p = &tcpPeer{id: dst, out: make(chan *Frame, peerQueue)}
		t.peers[dst] = p
	}
	if start && !p.started {
		if _, ok := t.addrs[dst]; !ok {
			// No address and no inbound conn yet: the manager would spin.
			p.mu.Lock()
			hasConn := p.conn != nil
			p.mu.Unlock()
			if !hasConn {
				return nil, fmt.Errorf("wire: no address for peer %d", dst)
			}
		}
		p.started = true
		go t.managePeer(p)
	}
	return p, nil
}

// connected reports whether p has a live connection.
func (p *tcpPeer) connected() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// managePeer owns one peer's connection: (re)establish, then pump the send
// queue through a coalescing writer until the conn dies.
func (t *TCPFabric) managePeer(p *tcpPeer) {
	backoff := t.backoff
	for !t.closed() {
		conn := t.waitConn(p, &backoff)
		if conn == nil {
			return // fabric closed
		}
		t.writeLoop(p, conn)
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.mu.Unlock()
		_ = conn.Close()
	}
}

// waitConn returns a live connection for p: the one an inbound handshake
// installed, or a fresh dial with capped backoff.
func (t *TCPFabric) waitConn(p *tcpPeer, backoff *time.Duration) net.Conn {
	for !t.closed() {
		p.mu.Lock()
		conn := p.conn
		p.mu.Unlock()
		if conn != nil {
			*backoff = t.backoff
			return conn
		}
		t.mu.Lock()
		addr := t.addrs[p.id]
		t.mu.Unlock()
		if addr == "" {
			// Wait for an accepted conn to appear.
			time.Sleep(t.backoff)
			continue
		}
		conn, err := t.dial(p, addr)
		if err == nil {
			*backoff = t.backoff
			return conn
		}
		select {
		case <-t.done:
			return nil
		case <-time.After(*backoff):
		}
		if *backoff < 64*t.backoff {
			*backoff *= 2
		}
	}
	return nil
}

// dial establishes and handshakes one outbound connection to p.
func (t *TCPFabric) dial(p *tcpPeer, addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	epoch := t.epoch
	table := make(map[int]string, len(t.addrs))
	for id, a := range t.addrs {
		table[id] = a
	}
	mx := t.mx
	t.mu.Unlock()

	hello := &Frame{Kind: KindHello, Src: t.self, Dst: p.id, Gen: epoch, Body: encodeAddrTable(table)}
	if err := writeFlush(conn, hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(t.handshake))
	wf, err := ReadFrame(br)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil || wf.Kind != KindWelcome {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: handshake with peer %d: %v", p.id, err)
	}
	t.adoptEpoch(wf.Gen)
	t.installConn(p, conn)
	if mx != nil {
		mx.peer(p.id).reconnects.Inc()
	}
	go t.readLoop(p, conn, br)
	return conn, nil
}

// acceptLoop serves inbound connections: read the Hello, answer Welcome,
// adopt the address table, install the conn on the peer and start reading.
func (t *TCPFabric) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handleInbound(conn)
	}
}

func (t *TCPFabric) handleInbound(conn net.Conn) {
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(t.handshake))
	hf, err := ReadFrame(br)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil || hf.Kind != KindHello {
		_ = conn.Close()
		return
	}
	t.mu.Lock()
	stale := hf.Gen < t.epoch
	t.mu.Unlock()
	if stale {
		_ = conn.Close() // a dead generation's leftover dialer
		return
	}
	t.adoptEpoch(hf.Gen)
	for id, addr := range decodeAddrTable(hf.Body) {
		if id == t.self {
			continue
		}
		t.mu.Lock()
		if _, known := t.addrs[id]; !known {
			t.addrs[id] = addr
		}
		t.mu.Unlock()
	}
	t.mu.Lock()
	epoch := t.epoch
	mx := t.mx
	t.mu.Unlock()
	if err := writeFlush(conn, &Frame{Kind: KindWelcome, Src: t.self, Dst: hf.Src, Gen: epoch}); err != nil {
		_ = conn.Close()
		return
	}
	p, err := t.peer(hf.Src, false)
	if err != nil {
		_ = conn.Close()
		return
	}
	t.installConn(p, conn)
	if mx != nil {
		mx.peer(p.id).reconnects.Inc()
	}
	// The accept side needs a writer too (acks and results flow back
	// on whatever conn exists) — start the manager now that a conn is up.
	t.mu.Lock()
	if !p.started {
		p.started = true
		go t.managePeer(p)
	}
	t.mu.Unlock()
	t.readLoop(p, conn, br)
}

// installConn makes conn p's current connection, closing any predecessor.
func (t *TCPFabric) installConn(p *tcpPeer, conn net.Conn) {
	p.mu.Lock()
	old := p.conn
	p.conn = conn
	p.mu.Unlock()
	if old != nil && old != conn {
		_ = old.Close()
	}
}

// readLoop decodes frames off one connection into the receiver until the
// conn dies. Corrupt frames poison the stream (framing is lost), so the
// conn is dropped and redialed.
func (t *TCPFabric) readLoop(p *tcpPeer, conn net.Conn, br *bufio.Reader) {
	for {
		f, err := ReadFrame(br)
		if err != nil {
			t.mu.Lock()
			mx := t.mx
			t.mu.Unlock()
			if mx != nil && (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTooLarge)) {
				mx.badFrames.Inc()
			}
			p.mu.Lock()
			if p.conn == conn {
				p.conn = nil
			}
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.mu.Lock()
		recv := t.recv
		mx := t.mx
		t.mu.Unlock()
		if mx != nil {
			pc := mx.peer(p.id)
			pc.msgsRecv.Inc()
			// Approximate: re-encoding for an exact byte count would double
			// the codec cost; header+body dominates.
			pc.bytesRecv.Add(int64(len(f.Body) + len(f.Tag) + 40))
		}
		if recv != nil {
			recv(f)
		}
	}
}

// writeLoop pumps p's queue through a coalescing buffered writer on conn.
func (t *TCPFabric) writeLoop(p *tcpPeer, conn net.Conn) {
	bw := bufio.NewWriter(conn)
	var scratch []byte
	for {
		var f *Frame
		select {
		case f = <-p.out:
		case <-t.done:
			return
		}
		t.mu.Lock()
		mx := t.mx
		t.mu.Unlock()
		for {
			scratch = AppendFrame(scratch[:0], f)
			if mx != nil {
				pc := mx.peer(p.id)
				pc.msgsSent.Inc()
				pc.bytesSent.Add(int64(len(scratch)))
			}
			if _, err := bw.Write(scratch); err != nil {
				return
			}
			// Coalesce: keep writing while more frames are queued; flush
			// only when the queue goes momentarily quiet.
			select {
			case f = <-p.out:
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// adoptEpoch raises the fabric's serving epoch to e if higher.
func (t *TCPFabric) adoptEpoch(e uint64) {
	t.mu.Lock()
	if e > t.epoch {
		t.epoch = e
	}
	t.mu.Unlock()
}

// Epoch returns the fabric's current serving epoch.
func (t *TCPFabric) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

func (t *TCPFabric) Peers() []PeerStatus {
	t.mu.Lock()
	ids := make([]int, 0, len(t.peers))
	seen := map[int]bool{}
	for id := range t.peers {
		ids = append(ids, id)
		seen[id] = true
	}
	for id := range t.addrs {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	mx := t.mx
	addrs := make(map[int]string, len(t.addrs))
	for id, a := range t.addrs {
		addrs[id] = a
	}
	peers := make(map[int]*tcpPeer, len(t.peers))
	for id, p := range t.peers {
		peers[id] = p
	}
	t.mu.Unlock()
	sort.Ints(ids)

	out := make([]PeerStatus, 0, len(ids))
	for _, id := range ids {
		ps := PeerStatus{Node: id, Addr: addrs[id]}
		if p := peers[id]; p != nil {
			ps.Connected = p.connected()
		}
		if mx != nil {
			pc := mx.peer(id)
			ps.Reconnects = pc.reconnects.Value()
			ps.BytesSent = pc.bytesSent.Value()
			ps.BytesRecv = pc.bytesRecv.Value()
			ps.MsgsSent = pc.msgsSent.Value()
			ps.MsgsRecv = pc.msgsRecv.Value()
		}
		out = append(out, ps)
	}
	return out
}

func (t *TCPFabric) Close() error {
	t.mu.Lock()
	select {
	case <-t.done:
	default:
		close(t.done)
	}
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	return err
}

// writeFlush writes one frame directly to a conn (handshake path, before
// the coalescing writer exists).
func writeFlush(conn net.Conn, f *Frame) error {
	_, err := conn.Write(EncodeFrame(f))
	return err
}

// encodeAddrTable serializes a node-id→address table for a Hello body.
func encodeAddrTable(t map[int]string) []byte {
	ids := make([]int, 0, len(t))
	for id := range t {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(len(t[id])))
		buf = append(buf, t[id]...)
	}
	return buf
}

// decodeAddrTable parses a Hello body; malformed tables yield nil.
func decodeAddrTable(b []byte) map[int]string {
	d := NewCursor(b)
	n := d.Uvarint()
	if d.err != nil || n > 1<<16 {
		return nil
	}
	out := make(map[int]string, n)
	for i := uint64(0); i < n; i++ {
		id := d.Int()
		addr := string(d.Bytes())
		if d.err != nil {
			return nil
		}
		out[id] = addr
	}
	return out
}
