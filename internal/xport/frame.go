package xport

import "indexlaunch/internal/obs"

// Kind discriminates the frame types endpoints exchange.
type Kind uint8

const (
	// KindHello opens a connection: the dialer introduces its node ID,
	// serving epoch and (from node 0) the full peer address table.
	KindHello Kind = 1 + iota
	// KindWelcome answers a Hello with the accepter's ID and epoch.
	KindWelcome
	// KindData carries one broadcast payload hop-by-hop along Route.
	KindData
	// KindAck acknowledges one Data/Exec/Result sequence on the reverse
	// link.
	KindAck
	// Kinds 5 and 6 are retired: never valid, and held so that Exec and
	// Result keep their numbers in frame format version 1.
	_
	_
	// KindExec asks the destination to run a registered task body;
	// KindResult returns the body's value or error. The endpoint sequences,
	// dedups and acks them like Data and hands them to the layer above
	// (internal/wire's Mesh).
	KindExec
	KindResult
)

// String names a kind for logs and errors.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindExec:
		return "exec"
	case KindResult:
		return "result"
	}
	return "invalid"
}

// Valid reports whether k is a defined frame kind.
func (k Kind) Valid() bool { return k >= KindHello && k <= KindAck || k == KindExec || k == KindResult }

// Frame is one transport message. Src and Dst are the endpoints of the hop
// the frame is traversing (not the broadcast origin/final destination —
// those are implied by Route), Seq sequences the (Src, Dst) link, and Gen
// is the originator's delivery generation: Endpoint.Recycle bumps it so a
// receiver discards its per-link dedup state between scheduler jobs
// without a second round trip, and stragglers of an earlier generation are
// recognisably stale. Frames are immutable once handed to a Fabric: the
// in-memory hub passes the pointer itself to the receiver.
type Frame struct {
	Kind  Kind
	Flags uint16
	Src   int
	Dst   int
	Seq   uint64
	Gen   uint64
	// Key disambiguates the items of one broadcast so every hop of every
	// item derives a distinct span.
	Key uint64
	// TC is the broadcast's span context; zero when untraced.
	TC obs.TraceRef
	// Route is the remaining relay chain for Data frames; the last entry
	// is the final destination.
	Route []int
	// Tag labels the launch the payload belongs to.
	Tag string
	// Body is the opaque payload (slice bytes, exec request, ...).
	Body []byte

	// local is a payload that never leaves the process: the in-memory
	// assembly (New) carries non-[]byte Item payloads here. No codec sees
	// it, so it survives only fabrics that pass the frame pointer through.
	local any
}

// Payload returns what the broadcaster put in the Item: the in-process
// value if there is one, Body otherwise.
func (f *Frame) Payload() any {
	if f.local != nil {
		return f.local
	}
	return f.Body
}

// hopTC derives the span context for this frame's current hop — a pure
// function of (header, link), so sender and receiver agree on the hop span
// without coordination and every fabric stamps identical transport spans.
func (f *Frame) hopTC() obs.TraceRef {
	return f.TC.Child(f.Key<<16 | uint64(f.Dst) + 1)
}

// Fabric moves frames between endpoints. The endpoint owns all delivery
// semantics — routing, acks, retransmission, dedup — so a fabric only has
// to make a best effort at getting one frame to one peer: a dropped,
// duplicated or reordered frame is recovered above, exactly as a lossy
// socket would be.
type Fabric interface {
	// Send forwards one frame toward peer dst. It may buffer; an error
	// means the frame was certainly not sent (no connection and no way to
	// make one). Safe for concurrent use.
	Send(dst int, f *Frame) error

	// SetReceiver installs the inbound-frame callback. Must be called
	// exactly once, before the first Send anywhere in the mesh; the
	// callback must not block indefinitely (it may be invoked from the
	// fabric's read loops).
	SetReceiver(fn func(f *Frame))

	// Peers snapshots the fabric's per-peer connection state for the
	// /statusz peer table.
	Peers() []PeerStatus

	// Close tears the fabric down; in-flight sends may be lost.
	Close() error
}

// PeerStatus is one row of the /statusz peer table.
type PeerStatus struct {
	// Node is the peer's mesh node id.
	Node int `json:"node"`
	// Addr is the peer's dial address ("local" on the in-memory hub).
	Addr string `json:"addr"`
	// Connected reports a currently-established connection.
	Connected bool `json:"connected"`
	// Reconnects counts connection establishments (1 = first connect).
	Reconnects int64 `json:"reconnects"`
	// BytesSent/BytesRecv/MsgsSent/MsgsRecv are the peer's lifetime frame
	// traffic counters.
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
}
