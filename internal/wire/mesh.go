package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/xport"
)

// Mesh is one process's node of a multi-process broadcast tree: an
// xport.Endpoint over a Fabric — Broadcast, Probe, MarkDead/MarkAlive,
// Recycle, Quiesce, Shape, Stats and Close are the endpoint's, the same
// engine the in-process transport runs — plus what only a real network
// needs: Exec/Result remote task execution (what cmd/idxnode serves).
//
// One Mesh instance runs in every participating process, all over the same
// Fabric kind: a loopback hub keeps everything deterministic and
// in-process, a TCP fabric crosses machine boundaries. To put a mesh under
// an xport.ChaosPlan, wrap its fabric: Fabric: xport.WithChaos(fab, plan).

// MeshConfig configures a Mesh.
type MeshConfig struct {
	// Self is this process's node id; node 0 is the broadcast origin.
	Self int
	// Nodes is the mesh size (node ids 0..Nodes-1).
	Nodes int
	// Fabric carries encoded frames; required.
	Fabric Fabric
	// Retransmit tunes the per-hop ack-timeout ladder; the zero value uses
	// the xport defaults.
	Retransmit xport.RetransmitPolicy
	// Prof records send/recv/retransmit spans (byte counts ride the tag);
	// nil disables profiling.
	Prof *obs.Recorder
	// Metrics receives the wire_* families; nil keeps them in a private
	// registry so Stats always works.
	Metrics *metrics.Registry
	// Deliver receives each broadcast payload exactly once at its
	// destination node. May be called from fabric goroutines.
	Deliver func(node int, tag string, payload []byte)
	// Exec serves inbound remote-execution requests (idxnode's task
	// registry); nil rejects them.
	Exec func(task string, point domain.Point, args []byte) ([]byte, error)
	// ExecTimeout bounds one remote execution round trip; zero defaults
	// to 30s.
	ExecTimeout time.Duration
}

// ErrUnreachable marks a remote execution that failed at the transport
// layer (peer never answered) rather than in the task body — callers fall
// back to local execution on it.
var ErrUnreachable = errors.New("wire: peer unreachable")

// Mesh adds remote execution to one node's reliable-tree endpoint.
type Mesh struct {
	*xport.Endpoint
	mx *wireMetrics

	deliver     func(node int, tag string, payload []byte)
	execFn      func(task string, point domain.Point, args []byte) ([]byte, error)
	execTimeout time.Duration

	mu       sync.Mutex
	execSeq  uint64
	execWait map[uint64]chan execResult
}

type execResult struct {
	val []byte
	err string
	ok  bool
}

// NewMesh creates a mesh node over the given fabric and installs its frame
// receiver.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &Mesh{
		mx:          newWireMetrics(reg),
		execFn:      cfg.Exec,
		execTimeout: cfg.ExecTimeout,
		execWait:    map[uint64]chan execResult{},
	}
	if m.execTimeout <= 0 {
		m.execTimeout = 30 * time.Second
	}
	m.deliver = cfg.Deliver
	// The socket fabric records per-peer traffic into the mesh's families;
	// look for it under any decorators.
	for fab := cfg.Fabric; fab != nil; {
		if a, ok := fab.(interface{ attach(*wireMetrics) }); ok {
			a.attach(m.mx)
			break
		}
		u, ok := fab.(interface{ Unwrap() Fabric })
		if !ok {
			break
		}
		fab = u.Unwrap()
	}
	ep, err := xport.NewEndpoint(xport.EndpointConfig{
		Self: cfg.Self, Nodes: cfg.Nodes, Fabric: cfg.Fabric, Retransmit: cfg.Retransmit,
		Prof: cfg.Prof, Metrics: reg, Family: "wire", Deliver: m.handle,
	})
	if err != nil {
		return nil, err
	}
	m.Endpoint = ep
	return m, nil
}

// Exec runs a registered task body on peer dst and returns its result. The
// request travels on the reliable link (acked, deduped, retransmitted);
// the bound on the whole round trip is ExecTimeout, after which Exec
// returns ErrUnreachable and the caller may fall back to local execution.
func (m *Mesh) Exec(dst int, task string, point domain.Point, args []byte) ([]byte, error) {
	if dst == m.Self() || dst < 0 || dst >= m.Nodes() {
		return nil, fmt.Errorf("%w: exec dst %d out of range", ErrUnreachable, dst)
	}
	m.mx.execs.Inc()
	m.mu.Lock()
	req := m.execSeq
	m.execSeq++
	ch := make(chan execResult, 1)
	m.execWait[req] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.execWait, req)
		m.mu.Unlock()
	}()

	// The sender stops retransmitting when Exec returns: once the result is
	// in (or given up on) the request's hop ack no longer matters, and a
	// sender left running would hold Quiesce forever on a dead peer.
	stop := make(chan struct{})
	defer close(stop)
	f := &Frame{Kind: KindExec, Key: req, Route: []int{dst},
		Tag: task, Body: encodeExecReq(req, task, point, args)}
	sent := make(chan bool, 1)
	m.Go(func() { sent <- m.SendReliable(dst, f, stop) })

	timer := time.NewTimer(m.execTimeout)
	defer timer.Stop()
	fail := func(err error) ([]byte, error) {
		m.mx.execErrs.Inc()
		return nil, err
	}
	for {
		select {
		case res := <-ch:
			if !res.ok {
				return fail(fmt.Errorf("wire: remote %s on node %d: %s", task, dst, res.err))
			}
			return res.val, nil
		case <-timer.C:
			return fail(fmt.Errorf("%w: exec %s on node %d timed out after %v", ErrUnreachable, task, dst, m.execTimeout))
		case <-m.Done():
			return fail(fmt.Errorf("%w: mesh closed", ErrUnreachable))
		case <-sent:
			sent = nil // acked (a close shows on Done); keep waiting for the result
		}
	}
}

// handle is the endpoint's delivery callback: it runs once per reliable
// frame that ends at this node — the endpoint has already deduplicated —
// on a fabric goroutine. It uses ep, not m.Endpoint: a frame can arrive
// while NewMesh is still returning.
func (m *Mesh) handle(ep *xport.Endpoint, f *Frame) {
	switch f.Kind {
	case KindData:
		if m.deliver != nil {
			m.deliver(f.Dst, f.Tag, f.Body)
		}
		return
	case KindResult:
		req, res, err := decodeExecRes(f.Body)
		if err != nil {
			return
		}
		m.mu.Lock()
		ch := m.execWait[req]
		delete(m.execWait, req)
		m.mu.Unlock()
		if ch != nil {
			ch <- res
		}
		return
	}
	// KindExec: run the registered body on a tracked goroutine (bodies may
	// take arbitrarily long; the fabric's read loop must not stall) and send
	// the Result back on the reliable link.
	req, task, point, args, err := decodeExecReq(f.Body)
	ep.Go(func() {
		var res execResult
		if err != nil {
			res = execResult{err: "malformed exec request: " + err.Error()}
		} else if m.execFn == nil {
			res = execResult{err: "node serves no tasks"}
		} else if val, execErr := m.execFn(task, point, args); execErr != nil {
			res = execResult{err: execErr.Error()}
		} else {
			res = execResult{val: val, ok: true}
		}
		rf := &Frame{Kind: KindResult, Gen: f.Gen, Key: req, Route: []int{f.Src},
			Tag: task, Body: encodeExecRes(req, res)}
		ep.SendReliable(f.Src, rf, nil)
	})
}

// encodeExecReq serializes one execution request body.
func encodeExecReq(req uint64, task string, point domain.Point, args []byte) []byte {
	buf := binary.AppendUvarint(nil, req)
	buf = binary.AppendUvarint(buf, uint64(len(task)))
	buf = append(buf, task...)
	buf = append(buf, byte(point.Dim))
	for i := 0; i < point.Dim; i++ {
		buf = binary.AppendVarint(buf, point.C[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	return append(buf, args...)
}

// decodeExecReq parses one execution request body.
func decodeExecReq(b []byte) (req uint64, task string, point domain.Point, args []byte, err error) {
	d := NewCursor(b)
	req = d.Uvarint()
	task = string(d.Bytes())
	dim := int(d.U8())
	if d.Err() == nil && (dim < 0 || dim > len(point.C)) {
		return 0, "", point, nil, fmt.Errorf("%w: point dim %d", ErrCorrupt, dim)
	}
	if d.Err() == nil {
		point.Dim = dim
		for i := 0; i < dim; i++ {
			point.C[i] = d.Varint()
		}
	}
	args = d.Bytes()
	if d.Err() != nil {
		return 0, "", domain.Point{}, nil, d.Err()
	}
	return req, task, point, args, nil
}

// encodeExecRes serializes one execution result body.
func encodeExecRes(req uint64, res execResult) []byte {
	buf := binary.AppendUvarint(nil, req)
	if res.ok {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(len(res.val)))
		return append(buf, res.val...)
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(res.err)))
	return append(buf, res.err...)
}

// decodeExecRes parses one execution result body.
func decodeExecRes(b []byte) (uint64, execResult, error) {
	d := NewCursor(b)
	req := d.Uvarint()
	ok := d.U8() == 1
	payload := d.Bytes()
	if d.Err() != nil {
		return 0, execResult{}, d.Err()
	}
	if ok {
		return req, execResult{val: payload, ok: true}, nil
	}
	return req, execResult{err: string(payload)}, nil
}
