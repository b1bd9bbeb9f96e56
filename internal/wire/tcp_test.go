package wire

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/xport"
)

// tcpRetransmit keeps spurious ack timeouts rare on a loaded test box.
var tcpRetransmit = xport.RetransmitPolicy{Timeout: 20 * time.Millisecond, MaxBackoff: 160 * time.Millisecond}

// tcpFabrics opens n fabrics over real localhost sockets. Node 0 gets the
// full address table (the launcher role); workers know only their own
// listener and learn the rest from node 0's Hello.
func tcpFabrics(t *testing.T, n int) []Fabric {
	t.Helper()
	fabs := make([]Fabric, n)
	addrs := map[int]string{}
	for i := 1; i < n; i++ {
		f, err := NewTCP(TCPConfig{Self: i, Listen: "127.0.0.1:0", DialBackoff: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = f
		addrs[i] = f.Addr()
	}
	f0, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: addrs, Epoch: 1, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fabs[0] = f0
	return fabs
}

// tcpCluster builds an n-node mesh over tcpFabrics.
func tcpCluster(t *testing.T, n int) ([]*Mesh, []*sink, []*TCPFabric) {
	t.Helper()
	fabs := tcpFabrics(t, n)
	meshes, sinks := meshesOver(t, fabs, tcpRetransmit)
	tcp := make([]*TCPFabric, n)
	for i, f := range fabs {
		tcp[i] = f.(*TCPFabric)
	}
	return meshes, sinks, tcp
}

// Node 3's route in a 4-node tree is 0→1→3: node 1 must relay, which means
// it has to dial a sibling whose address it only knows from the handshake's
// address table.
func TestTCPWorkerLearnsSiblingsFromHandshake(t *testing.T) {
	meshes, sinks, fabs := tcpCluster(t, 4)
	done := make(chan struct{})
	go func() {
		meshes[0].Broadcast("relay", []Item{{Dst: 3, Payload: []byte("deep")}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("relayed broadcast never completed")
	}
	if sinks[3].count("relay") != 1 {
		t.Fatal("leaf never received relayed payload")
	}
	// Node 1 must have learned node 3's address (it had no Peers config).
	found := false
	for _, ps := range fabs[1].Peers() {
		if ps.Node == 3 && ps.Addr != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 1 peer table lacks node 3: %+v", fabs[1].Peers())
	}
}

func TestTCPExec(t *testing.T) {
	meshes, _, _ := tcpCluster(t, 3)
	val, err := meshes[0].Exec(2, "remote", domain.Pt1(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "remote@5" {
		t.Fatalf("got %q", val)
	}
}

func TestTCPReconnectAfterConnDrop(t *testing.T) {
	meshes, _, fabs := tcpCluster(t, 2)
	if _, err := meshes[0].Exec(1, "warm", domain.Pt1(1), nil); err != nil {
		t.Fatal(err)
	}
	// Sever node 1's live connection out from under it; the next exec must
	// succeed via redial + retransmission.
	fabs[1].mu.Lock()
	p := fabs[1].peers[0]
	fabs[1].mu.Unlock()
	if p != nil {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
		}
		p.mu.Unlock()
	}
	val, err := meshes[0].Exec(1, "after", domain.Pt1(2), nil)
	if err != nil {
		t.Fatalf("exec after conn drop: %v", err)
	}
	if string(val) != "after@2" {
		t.Fatalf("got %q", val)
	}
	// The reconnect must be visible in the peer counters.
	recon := false
	for _, ps := range append(fabs[0].Peers(), fabs[1].Peers()...) {
		if ps.Reconnects > 1 {
			recon = true
		}
	}
	if !recon {
		t.Log("note: reconnect landed on a fresh accept; counters:", fabs[0].Peers(), fabs[1].Peers())
	}
}

// A peer that is down never drains its send queue: once the queue is full,
// Send drops frames instead of blocking, so senders retransmitting to a
// dead worker — and a Quiesce waiting on them — cannot hang.
func TestTCPSendToDeadPeerDropsWhenQueueFull(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()
	f, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: map[int]string{1: dead}, Epoch: 1, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const senders, extra = 4, 8
	var dropped atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range peerQueue/senders + extra/senders {
				if f.Send(1, &Frame{Kind: KindData, Dst: 1}) != nil {
					dropped.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked on a dead peer's full queue")
	}
	if got := dropped.Load(); got != extra {
		t.Errorf("%d frames dropped, want %d (the ones past the %d-frame queue)", got, extra, peerQueue)
	}
}

// A Hello from a lower epoch is a dead generation's leftover dialer and must
// be refused; the current epoch must survive.
func TestTCPStaleEpochRejected(t *testing.T) {
	f1, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0", Epoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f1.SetReceiver(func(*Frame) {})

	stale, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: f1.Addr()}, Epoch: 3, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.SetReceiver(func(*Frame) {})

	// The stale dialer's handshake is refused: its sends can't go through.
	errc := make(chan error, 1)
	go func() { errc <- stale.Send(1, &Frame{Kind: KindData, Src: 0, Dst: 1}) }()
	deadline := time.After(500 * time.Millisecond)
	connected := false
	for !connected {
		select {
		case <-deadline:
			// Expected: never established.
			if got := f1.Epoch(); got != 5 {
				t.Fatalf("victim epoch moved to %d", got)
			}
			return
		case <-time.After(10 * time.Millisecond):
			for _, ps := range f1.Peers() {
				if ps.Node == 0 && ps.Connected {
					connected = true
				}
			}
		}
	}
	t.Fatal("stale-epoch dialer was accepted")
}

// A current-epoch dialer raises a lagging accepter to its epoch.
func TestTCPEpochAdoption(t *testing.T) {
	worker, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	worker.SetReceiver(func(*Frame) {})

	launcher, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0",
		Peers: map[int]string{1: worker.Addr()}, Epoch: 9, DialBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer launcher.Close()
	launcher.SetReceiver(func(*Frame) {})

	_ = launcher.Send(1, &Frame{Kind: KindData, Src: 0, Dst: 1})
	deadline := time.After(5 * time.Second)
	for worker.Epoch() != 9 {
		select {
		case <-deadline:
			t.Fatalf("worker never adopted epoch 9 (at %d)", worker.Epoch())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
