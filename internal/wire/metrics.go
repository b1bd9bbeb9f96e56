package wire

import (
	"strconv"
	"sync"

	"indexlaunch/internal/metrics"
)

// Wire metrics: the wire_* families the socket layer adds to the delivery
// counters the mesh's xport.Endpoint registers under the same prefix
// (wire_sends_total, wire_retransmits_total, ... — one counter set, see
// internal/xport/metrics.go). Each peer gets bytes/msgs/reconnect counters
// (label peer="<node id>") resolved once and cached, keeping the frame path
// free of label formatting.

type wireMetrics struct {
	execs, execErrs *metrics.Counter
	badFrames       *metrics.Counter

	encodeNS, decodeNS *metrics.Histogram

	peerBytesSent, peerBytesRecv *metrics.CounterVec
	peerMsgsSent, peerMsgsRecv   *metrics.CounterVec
	peerReconnects               *metrics.CounterVec

	mu    sync.Mutex
	peers map[int]*peerCounters
}

// peerCounters are one peer's resolved instruments.
type peerCounters struct {
	bytesSent, bytesRecv, msgsSent, msgsRecv, reconnects *metrics.Counter
}

func newWireMetrics(reg *metrics.Registry) *wireMetrics {
	return &wireMetrics{
		execs:     reg.Counter("wire_execs_total", "Exec requests sent: one per request frame, whatever slices it carries; one per single-point call"),
		execErrs:  reg.Counter("wire_exec_errors_total", "Exec calls that returned an error: transport failure, rejected request, or a single-point call's task error"),
		badFrames: reg.Counter("wire_bad_frames_total", "inbound frames rejected by the codec (corrupt, torn, wrong version)"),

		encodeNS: reg.Histogram("wire_encode_ns", "frame encode latency"),
		decodeNS: reg.Histogram("wire_decode_ns", "frame decode latency"),

		peerBytesSent:  reg.CounterVec("wire_peer_bytes_sent_total", "frame bytes sent per peer", "peer"),
		peerBytesRecv:  reg.CounterVec("wire_peer_bytes_recv_total", "frame bytes received per peer", "peer"),
		peerMsgsSent:   reg.CounterVec("wire_peer_msgs_sent_total", "frames sent per peer", "peer"),
		peerMsgsRecv:   reg.CounterVec("wire_peer_msgs_recv_total", "frames received per peer", "peer"),
		peerReconnects: reg.CounterVec("wire_peer_reconnects_total", "connection (re)establishments per peer", "peer"),

		peers: map[int]*peerCounters{},
	}
}

// peer resolves (and caches) the per-peer counters for node id.
func (m *wireMetrics) peer(id int) *peerCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	pc := m.peers[id]
	if pc == nil {
		label := strconv.Itoa(id)
		pc = &peerCounters{
			bytesSent:  m.peerBytesSent.With(label),
			bytesRecv:  m.peerBytesRecv.With(label),
			msgsSent:   m.peerMsgsSent.With(label),
			msgsRecv:   m.peerMsgsRecv.With(label),
			reconnects: m.peerReconnects.With(label),
		}
		m.peers[id] = pc
	}
	return pc
}
