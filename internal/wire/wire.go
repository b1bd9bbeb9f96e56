// Package wire takes the index-launch transport out of the process. The
// delivery engine itself — tree routing, per-link sequencing and dedup,
// ack/timeout retransmission, generations — is xport.Endpoint; this package
// supplies what only a real network needs:
//
//   - codec.go: the frame format — varint length prefix, versioned header
//     (kind, hop endpoints, sequence, delivery generation, span context,
//     remaining relay route), opaque body, CRC32C trailer (the same
//     Castagnoli polynomial internal/wal frames with). Decoding never
//     panics on torn or corrupt input; the fuzz harness enforces that.
//
//   - tcp.go: the socket Fabric — one listener per process, per-peer
//     dialers with capped-backoff reconnect, a handshake exchanging node ID
//
//   - serving epoch + the peer address table, and write-coalescing send
//     loops (frames queued while a write was in flight flush in one
//     syscall). NewHub is the in-memory xport.Hub with the codec in the
//     loop: every frame is encoded and decoded on its way through, so the
//     deterministic tests exercise the format too.
//
//   - mesh.go: Mesh, one process's Endpoint plus Exec/Result remote task
//     execution — the primitive cmd/idxnode serves.
//
//   - proxy.go: Proxy, a frame-decoding TCP forwarder that applies an
//     xport.ChaosPlan's per-frame decisions (the same Decide function the
//     in-process chaos fabric calls) to real traffic between processes.
package wire

import (
	"fmt"

	"indexlaunch/internal/xport"
)

// Version is the frame-format version stamped into every header; decoders
// reject frames from a different major format.
const Version = 1

// The frame, fabric and item types are the engine's.
type (
	Kind       = xport.Kind
	Frame      = xport.Frame
	Fabric     = xport.Fabric
	PeerStatus = xport.PeerStatus
	Item       = xport.Item
	Hub        = xport.Hub
)

const (
	KindHello   = xport.KindHello
	KindWelcome = xport.KindWelcome
	KindData    = xport.KindData
	KindAck     = xport.KindAck
	KindExec    = xport.KindExec
	KindResult  = xport.KindResult
)

// NewHub creates an in-memory hub whose every frame round-trips the codec.
func NewHub() *Hub {
	h := xport.NewHub()
	h.Codec = func(f *Frame) (*Frame, int, error) {
		buf := EncodeFrame(f)
		df, _, err := DecodeFrame(buf)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: loopback self-decode: %w", err)
		}
		return df, len(buf), nil
	}
	return h
}
