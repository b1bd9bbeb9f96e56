package wire

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/xport"
)

// Mesh is one process's node of a multi-process broadcast tree: an
// xport.Endpoint over a Fabric — Broadcast, MarkDead/MarkAlive,
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
	// destination node, and the descriptor of each slice an Exec request
	// the node serves carries, tagged with the slice's task, before the
	// request's first point runs. May be called from fabric goroutines.
	Deliver func(node int, tag string, payload []byte)
	// Exec serves inbound remote-execution requests (idxnode's task
	// registry), once per point of each slice received and from up to
	// GOMAXPROCS goroutines at a time; nil rejects them.
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

	// execSlots bounds the task bodies this node runs at once, across all
	// the slices it is serving: one token per processor.
	execSlots chan struct{}

	mu       sync.Mutex
	execSeq  uint64
	execWait map[uint64]*execWaiter
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
		execSlots:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		execWait:    map[uint64]*execWaiter{},
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

// Exec runs a registered task body for one point on peer dst and returns
// its result: the single-point case of ExecSlice, for the callers that own
// one point (retries, single launches). A body error comes back as an
// error, like any other failed call.
func (m *Mesh) Exec(dst int, task string, point domain.Point, args []byte) ([]byte, error) {
	res, err := m.ExecSlice(dst, ExecRequest{
		Task: task, Domain: domain.FromRect(domain.Rect{Lo: point, Hi: point}), Args: args})
	if err != nil {
		return nil, err
	}
	if res[0].Err != nil {
		m.mx.execErrs.Inc()
		return nil, res[0].Err
	}
	return res[0].Val, nil
}

// ExecSlice ships slices to peer dst — descriptors and arguments in one
// reliable frame (acked, deduped, retransmitted) when they fit — and
// returns every point's outcome, slice after slice in the order given, each
// in its domain's iteration order. The peer hands each descriptor to its
// Deliver callback and runs the task body per point; a body that fails
// there fails only its own point (PointResult.Err). The returned error is
// the call's: ErrUnreachable when the peer did not answer within
// ExecTimeout per frame, the mesh closed, or a point's payload cannot fit a
// frame — the caller may run the slices locally — and the peer's reason
// when it rejected a request. What is too large for one frame travels as
// consecutive requests and answers cut by byte budget.
func (m *Mesh) ExecSlice(dst int, rs ...ExecRequest) ([]PointResult, error) {
	if dst == m.Self() || dst < 0 || dst >= m.Nodes() {
		return nil, fmt.Errorf("%w: exec dst %d out of range", ErrUnreachable, dst)
	}
	res, err := m.execSlices(dst, rs)
	if err != nil {
		m.mx.execErrs.Inc()
	}
	return res, err
}

// execSlices sends rs as one request when they fit a frame together, and
// otherwise each slice on its own, split into consecutive sub-slices as its
// bytes need; answers are concatenated in order.
func (m *Mesh) execSlices(dst int, rs []ExecRequest) ([]PointResult, error) {
	var n int64
	for i := range rs {
		n += rs[i].Domain.Volume()
	}
	if n == 0 {
		return nil, nil
	}
	budget := execBodyBudget(rs[0].Task)
	if n <= maxSlicePoints && !slices.ContainsFunc(rs, func(r ExecRequest) bool { return r.Domain.Empty() }) {
		if body := encodeExecReq(dst, rs...); len(body) <= budget {
			return m.roundTrip(dst, rs[0].Task, int(n), body)
		}
	}
	if len(rs) == 1 {
		parts, err := rs[0].split(budget)
		if err != nil {
			return nil, err
		}
		rs = parts
	}
	out := make([]PointResult, 0, n)
	for i := range rs {
		res, err := m.execSlices(dst, rs[i:i+1])
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

// roundTrip sends one Exec frame and collects the n point results its
// Result frames carry.
func (m *Mesh) roundTrip(dst int, task string, n int, body []byte) ([]PointResult, error) {
	m.mx.execs.Inc()
	w := &execWaiter{task: task, res: make([]PointResult, n), done: make(chan struct{})}
	m.mu.Lock()
	req := m.execSeq
	m.execSeq++
	m.execWait[req] = w
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.execWait, req)
		m.mu.Unlock()
	}()

	// The sender stops retransmitting when the round trip ends: once the
	// result is in (or given up on) the request's hop ack no longer matters,
	// and a sender left running would hold Quiesce forever on a dead peer.
	stop := make(chan struct{})
	defer close(stop)
	f := &Frame{Kind: KindExec, Key: req, Route: []int{dst}, Tag: task, Body: body}
	sent := make(chan bool, 1)
	m.Go(func() { sent <- m.SendReliable(dst, f, stop) })

	timer := time.NewTimer(m.execTimeout)
	defer timer.Stop()
	for {
		select {
		case <-w.done:
			if w.rejected {
				return nil, fmt.Errorf("wire: remote %s on node %d: %s", task, dst, w.reason)
			}
			return w.res, nil
		case <-timer.C:
			return nil, fmt.Errorf("%w: exec %s on node %d timed out after %v", ErrUnreachable, task, dst, m.execTimeout)
		case <-m.Done():
			return nil, fmt.Errorf("%w: mesh closed", ErrUnreachable)
		case <-sent:
			sent = nil // acked (a close shows on Done); keep waiting for the result
		}
	}
}

// execWaiter collects one request's Result frames. handle fills it under
// m.mu and closes done after the last write.
type execWaiter struct {
	task     string
	res      []PointResult
	got      int // points answered so far: the next frame's first
	rejected bool
	reason   string
	done     chan struct{}
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
	case KindResult:
		m.collect(f)
	case KindExec:
		// Bodies may take arbitrarily long and the fabric's read loop must
		// not stall: decode, expand and run on a tracked goroutine.
		ep.Go(func() { m.serveExec(ep, f) })
	}
}

// collect files one Result frame under its request. A peer sends a
// request's frames in slice order, each after the previous was acked; a
// frame that is not the next one expected is dropped like any other
// malformed body (the request then times out).
func (m *Mesh) collect(f *Frame) {
	body, err := decodeExecRes(f.Body)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.execWait[f.Key]
	if w == nil {
		return
	}
	switch {
	case body.rejected:
		w.rejected, w.reason = true, body.reason
	case body.first != w.got || len(body.results) > len(w.res)-w.got:
		return
	default:
		for i, res := range body.results {
			if res.ok {
				w.res[w.got+i].Val = res.val
			} else {
				w.res[w.got+i].Err = fmt.Errorf("wire: remote %s on node %d: %s", w.task, f.Src, res.err)
			}
		}
		if w.got += len(body.results); w.got < len(w.res) {
			return
		}
	}
	delete(m.execWait, f.Key)
	close(w.done)
}

// serveExec answers one Exec request: hand each slice descriptor to
// Deliver, run the registered bodies over the points, send the outcomes
// back in as many reliable Result frames as their bytes need.
func (m *Mesh) serveExec(ep *xport.Endpoint, f *Frame) {
	reply := func(body execResBody) bool {
		return ep.SendReliable(f.Src, &Frame{Kind: KindResult, Gen: f.Gen, Key: f.Key,
			Route: []int{f.Src}, Tag: f.Tag, Body: encodeExecRes(&body)}, nil)
	}
	rs, descs, err := decodeExecReq(f.Body)
	switch {
	case err != nil:
		reply(execResBody{rejected: true, reason: "malformed exec request: " + err.Error()})
		return
	case m.execFn == nil:
		reply(execResBody{rejected: true, reason: "node serves no tasks"})
		return
	}
	if m.deliver != nil {
		for i, desc := range descs {
			m.deliver(f.Dst, rs[i].Task, desc)
		}
	}
	var n int64
	for i := range rs {
		n += rs[i].Domain.Volume()
	}
	results := make([]execResult, 0, n)
	for i := range rs {
		results = m.runSlice(ep, &rs[i], results)
	}
	for _, part := range splitResults(results, execBodyBudget(f.Tag)) {
		if !reply(part) {
			return // the endpoint closed
		}
	}
}

// runSlice expands r's domain into point tasks and runs the registered body
// for each, in any order, on at most GOMAXPROCS goroutines mesh-wide (this
// one included): however many slices arrive, the bodies in flight never
// outnumber the processors. Each goroutine claims runs of consecutive
// points and walks a run from its first. The outcomes, in the domain's
// iteration order, are appended to out.
func (m *Mesh) runSlice(ep *xport.Endpoint, r *ExecRequest, out []execResult) []execResult {
	n := int(r.Domain.Volume())
	out = slices.Grow(out, n)[:len(out)+n]
	res := out[len(out)-n:]
	grain := max(1, n/(4*cap(m.execSlots)))
	var next atomic.Int64
	work := func() {
		select {
		case m.execSlots <- struct{}{}:
		case <-ep.Done():
			return
		}
		defer func() { <-m.execSlots }()
		for lo := int(next.Add(int64(grain))) - grain; lo < n; lo = int(next.Add(int64(grain))) - grain {
			i := lo
			r.Domain.EachFrom(int64(lo), func(p domain.Point) bool {
				if val, err := m.execFn(r.Task, p, r.argsAt(i)); err != nil {
					res[i] = execResult{err: err.Error()}
				} else {
					res[i] = execResult{val: val, ok: true}
				}
				i++
				return i < lo+grain
			})
		}
	}
	var wg sync.WaitGroup
	for k := min(cap(m.execSlots), (n+grain-1)/grain); k > 1; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
