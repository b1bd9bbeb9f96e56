package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"indexlaunch/internal/domain"
)

// Exec wire format. A slice — the sub-domain of one index launch that one
// node owns — crosses the network inside an Exec request: the slice
// descriptor (what a KindData slice broadcast carries, byte for byte)
// followed by the arguments, so the shipment is the execution trigger. A
// request carries one or more slices, of one launch or several; the
// destination expands each into point tasks and answers with the per-point
// outcomes in request order, each slice's in its domain's iteration order.
// The request id rides the frame header (Frame.Key) on both frames, so even
// an undecodable request can be rejected by id.
//
// Request body:
//
//	uvarint  slice count (>= 1)
//	count × {
//	  bytes    task name
//	  bytes    slice descriptor (AppendSlicePayload)
//	  u8       argument mode: 0 shared, 1 per point
//	  mode 0:  bytes args
//	  mode 1:  one bytes field per point, in the domain's iteration order
//	}
//
// Result body:
//
//	u8       status: 0 point results, 1 request rejected
//	status 1: bytes reason
//	status 0: uvarint first   request-order index of this frame's first point
//	          uvarint count
//	          count × { u8 ok; bytes value (ok = 1) or error text (ok = 0) }
//
// ("bytes" is a uvarint length and that many bytes.) A request's results
// may span several consecutive Result frames (first = points answered so
// far); a single-point Exec is the one-slice, |D| = 1 case of the same two
// bodies. A request holds at most maxSlicePoints points and fits a frame.

// PayloadSlice is the first byte of a slice-descriptor payload, the one
// broadcast payload type: DecodeSlicePayload rejects any other first byte.
// Exec requests embed the descriptor.
const PayloadSlice = 1

// maxSlicePoints bounds the points of one Exec request: a point's result
// takes at least two bytes, so a larger slice's answer could never fit one
// frame. ExecSlice splits above it; the decoder rejects above it, which is
// what keeps a forged dense rect from sizing an allocation.
const maxSlicePoints = MaxFrameSize / 2

// frameOverhead bounds the encoded frame bytes around tag and body: fixed
// header, five uvarint header fields, span context, a one-hop route, the
// length prefixes and the CRC (85 bytes worst case).
const frameOverhead = 128

// execBodyBudget is the largest Exec or Result body that still frames under
// MaxFrameSize with the given tag.
func execBodyBudget(tag string) int { return MaxFrameSize - frameOverhead - len(tag) }

// AppendDomain serializes a domain losslessly: dense domains as their rect,
// sparse domains as their explicit point list.
func AppendDomain(buf []byte, d domain.Domain) []byte {
	dim := d.Dim()
	if d.Sparse() {
		pts := d.Points()
		buf = append(buf, 1, byte(dim))
		buf = binary.AppendUvarint(buf, uint64(len(pts)))
		for _, p := range pts {
			for i := 0; i < dim; i++ {
				buf = binary.AppendVarint(buf, p.C[i])
			}
		}
		return buf
	}
	r := d.Bounds()
	buf = append(buf, 0, byte(dim))
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Lo.C[i])
	}
	for i := 0; i < dim; i++ {
		buf = binary.AppendVarint(buf, r.Hi.C[i])
	}
	return buf
}

// DecodeDomain parses AppendDomain's encoding; a malformed field latches
// the cursor's error and yields the zero domain.
func DecodeDomain(d *Cursor) domain.Domain {
	sparse := d.U8() == 1
	dim := int(d.U8())
	if d.Err() != nil || dim < 1 || dim > domain.MaxDim {
		d.Fail()
		return domain.Domain{}
	}
	if sparse {
		n := d.Uvarint()
		if d.Err() != nil || n > uint64(d.Rest()) { // >=1 byte per coord
			d.Fail()
			return domain.Domain{}
		}
		pts := make([]domain.Point, 0, n)
		for i := uint64(0); i < n; i++ {
			var p domain.Point
			p.Dim = dim
			for c := 0; c < dim; c++ {
				p.C[c] = d.Varint()
			}
			pts = append(pts, p)
		}
		if d.Err() != nil {
			return domain.Domain{}
		}
		return domain.FromPoints(pts)
	}
	var lo, hi domain.Point
	lo.Dim, hi.Dim = dim, dim
	for c := 0; c < dim; c++ {
		lo.C[c] = d.Varint()
	}
	for c := 0; c < dim; c++ {
		hi.C[c] = d.Varint()
	}
	if d.Err() != nil {
		return domain.Domain{}
	}
	return domain.FromRect(domain.Rect{Lo: lo, Hi: hi})
}

// AppendSlicePayload serializes one slice descriptor: the sub-domain dom of
// a launch, owned by node, at position idx of the launch's slice order.
func AppendSlicePayload(buf []byte, idx, node int, dom domain.Domain) []byte {
	buf = append(buf, PayloadSlice)
	buf = binary.AppendUvarint(buf, uint64(idx))
	buf = binary.AppendUvarint(buf, uint64(node))
	return AppendDomain(buf, dom)
}

// DecodeSlicePayload parses AppendSlicePayload's encoding.
func DecodeSlicePayload(b []byte) (idx, node int, dom domain.Domain, err error) {
	d := NewCursor(b)
	if d.U8() != PayloadSlice {
		d.Fail()
	}
	idx = d.Int()
	node = d.Int()
	dom = DecodeDomain(d)
	if d.Err() != nil {
		return 0, 0, domain.Domain{}, d.Err()
	}
	return idx, node, dom, nil
}

// ExecRequest asks a peer to run one task over every point of a slice.
type ExecRequest struct {
	// Task is the registered task name the peer resolves.
	Task string
	// Index is the slice's position in its launch's slice order; it rides
	// the descriptor handed to the peer's Deliver callback.
	Index int
	// Domain is the slice: the peer runs one point task per point, in the
	// domain's iteration order.
	Domain domain.Domain
	// Args is the payload every point receives.
	Args []byte
	// PointArgs, when non-nil, holds one payload per point in the domain's
	// iteration order and replaces Args.
	PointArgs [][]byte
}

// argsAt returns the payload of the i-th point.
func (r *ExecRequest) argsAt(i int) []byte {
	if r.PointArgs != nil {
		return r.PointArgs[i]
	}
	return r.Args
}

// PointResult is the outcome of one point of a slice: the task body's value,
// or the error it failed with on the peer.
type PointResult struct {
	Val []byte
	Err error
}

// appendField appends one "bytes" field: uvarint length, then the bytes.
func appendField[T ~string | ~[]byte](buf []byte, v T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// encodeExecReq serializes one execution request body for peer dst
// carrying rs, unchecked: Mesh.ExecSlice keeps within the bounds.
func encodeExecReq(dst int, rs ...ExecRequest) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		desc := AppendSlicePayload(nil, r.Index, dst, r.Domain)
		size := 32 + len(r.Task) + len(desc) + len(r.Args)
		for _, a := range r.PointArgs {
			size += binary.MaxVarintLen32 + len(a)
		}
		buf = appendField(appendField(slices.Grow(buf, size), r.Task), desc)
		if r.PointArgs == nil {
			buf = appendField(append(buf, 0), r.Args)
			continue
		}
		buf = append(buf, 1)
		for _, a := range r.PointArgs {
			buf = appendField(buf, a)
		}
	}
	return buf
}

// decodeExecReq parses one execution request body into its slices and the
// slice descriptors they embed; both alias b, a delivered frame's body.
// Every count — slices, points, payloads — is checked against the bytes
// that remain, and the points of all slices together against
// maxSlicePoints, before anything is sized by it.
func decodeExecReq(b []byte) (rs []ExecRequest, descs [][]byte, err error) {
	d := NewCursor(b)
	// A slice takes at least 10 bytes: two length prefixes, six descriptor
	// bytes, the mode byte and one argument byte.
	if k := d.Uvarint(); d.Err() == nil && k >= 1 && k <= uint64(d.Rest()/10) {
		rs, descs = make([]ExecRequest, k), make([][]byte, k)
	}
	left := int64(maxSlicePoints)
	for i := 0; i < len(rs) && d.Err() == nil; i++ {
		r := &rs[i]
		r.Task, descs[i] = string(d.View()), d.View()
		if r.Index, _, r.Domain, err = DecodeSlicePayload(descs[i]); err != nil {
			return nil, nil, err
		}
		n, ok := boundedVolume(r.Domain)
		if left -= n; !ok || left < 0 {
			return nil, nil, fmt.Errorf("%w: request of no or more than %d points", ErrCorrupt, maxSlicePoints)
		}
		switch mode := d.U8(); {
		case d.Err() != nil:
		case mode == 0:
			r.Args = d.View()
		case mode == 1 && n <= int64(d.Rest()): // >=1 byte per payload
			r.PointArgs = make([][]byte, n)
			for j := range r.PointArgs {
				r.PointArgs[j] = d.View()
			}
		default:
			d.Fail()
		}
	}
	if rs == nil || d.Rest() != 0 {
		d.Fail()
	}
	if d.Err() != nil {
		return nil, nil, d.Err()
	}
	return rs, descs, nil
}

// boundedVolume returns d's point count when it lies in [1, maxSlicePoints].
// Rect.Volume multiplies extents unchecked; a forged rect must not wrap it
// into range.
func boundedVolume(d domain.Domain) (int64, bool) {
	if d.Sparse() {
		n := d.Volume()
		return n, n >= 1 && n <= maxSlicePoints
	}
	r := d.Bounds()
	n := uint64(1)
	for i := 0; i < r.Dim(); i++ {
		if r.Hi.C[i] < r.Lo.C[i] {
			return 0, false
		}
		ext := uint64(r.Hi.C[i]) - uint64(r.Lo.C[i]) // exact for hi >= lo
		if ext >= maxSlicePoints {
			return 0, false
		}
		if n *= ext + 1; n > maxSlicePoints {
			return 0, false
		}
	}
	return int64(n), true
}

// split cuts r into consecutive sub-slices whose request bodies fit budget
// bytes and maxSlicePoints points each — a pure function of the request, so
// a launch splits the same way every time. It fails only when a single
// point's payload cannot fit a frame by itself.
func (r *ExecRequest) split(budget int) ([]ExecRequest, error) {
	pts := r.Domain.Points()
	// Slice count, task, descriptor header (type, index, node, domain
	// header, count), mode byte and the length prefixes: 64 bytes cover
	// them.
	fixed := 64 + len(r.Task)
	if r.PointArgs == nil {
		fixed += len(r.Args)
	}
	var scratch [binary.MaxVarintLen64]byte
	var parts []ExecRequest
	cut := func(a, b int) {
		part := ExecRequest{Task: r.Task, Index: r.Index, Domain: domain.FromPoints(pts[a:b]), Args: r.Args}
		if r.PointArgs != nil {
			part.PointArgs = r.PointArgs[a:b]
		}
		parts = append(parts, part)
	}
	start, size := 0, fixed
	for i, p := range pts {
		cost := 0
		for c := 0; c < p.Dim; c++ {
			cost += len(binary.AppendVarint(scratch[:0], p.C[c]))
		}
		if r.PointArgs != nil {
			cost += binary.MaxVarintLen32 + len(r.PointArgs[i])
		}
		if fixed+cost > budget {
			return nil, fmt.Errorf("%w: exec request for point %v of %s needs %d bytes, frames carry %d",
				ErrUnreachable, p, r.Task, fixed+cost, budget)
		}
		if i > start && (size+cost > budget || i-start == maxSlicePoints) {
			cut(start, i)
			start, size = i, fixed
		}
		size += cost
	}
	cut(start, len(pts))
	return parts, nil
}

// execResult is one point's outcome as it crosses the wire.
type execResult struct {
	val []byte
	err string
	ok  bool
}

// execResBody is one decoded Result body: a rejection of the whole request,
// or the outcomes of count consecutive points starting at first.
type execResBody struct {
	rejected bool
	reason   string
	first    int
	results  []execResult
}

// encodeExecRes serializes one execution result body.
func encodeExecRes(body *execResBody) []byte {
	if body.rejected {
		return appendField([]byte{1}, body.reason)
	}
	size := 1 + 2*binary.MaxVarintLen64
	for _, res := range body.results {
		size += 1 + binary.MaxVarintLen32 + len(res.val) + len(res.err)
	}
	buf := binary.AppendUvarint(append(make([]byte, 0, size), 0), uint64(body.first))
	buf = binary.AppendUvarint(buf, uint64(len(body.results)))
	for _, res := range body.results {
		if res.ok {
			buf = appendField(append(buf, 1), res.val)
		} else {
			buf = appendField(append(buf, 0), res.err)
		}
	}
	return buf
}

// decodeExecRes parses one execution result body; values alias b, a
// delivered frame's body.
func decodeExecRes(b []byte) (execResBody, error) {
	d := NewCursor(b)
	var body execResBody
	switch status := d.U8(); {
	case d.Err() != nil:
	case status == 1:
		body.rejected = true
		body.reason = string(d.View())
	case status == 0:
		body.first = d.Int()
		n := d.Uvarint()
		if d.Err() != nil || n > uint64(d.Rest())/2 { // >=2 bytes per result
			d.Fail()
			break
		}
		body.results = make([]execResult, n)
		for i := range body.results {
			ok := d.U8()
			payload := d.View()
			switch ok {
			case 1:
				body.results[i] = execResult{val: payload, ok: true}
			case 0:
				body.results[i] = execResult{err: string(payload)}
			default:
				d.Fail()
			}
		}
	default:
		d.Fail()
	}
	if d.Err() == nil && d.Rest() != 0 {
		d.Fail()
	}
	if d.Err() != nil {
		return execResBody{}, d.Err()
	}
	return body, nil
}

// splitResults cuts a slice's outcomes into consecutive Result bodies of at
// most budget bytes each. An outcome too large for any frame is replaced by
// a task error naming its size: it cannot cross the wire at all.
func splitResults(results []execResult, budget int) []execResBody {
	// Status byte plus the first and count uvarints.
	const fixed = 1 + 2*binary.MaxVarintLen64
	var parts []execResBody
	start, size := 0, fixed
	for i := range results {
		res := &results[i]
		cost := 1 + binary.MaxVarintLen32 + len(res.val) + len(res.err)
		if fixed+cost > budget {
			*res = execResult{err: fmt.Sprintf("result of %d bytes exceeds the %d-byte frame bound", len(res.val), budget)}
			cost = 1 + binary.MaxVarintLen32 + len(res.err)
		}
		if i > start && size+cost > budget {
			parts = append(parts, execResBody{first: start, results: results[start:i]})
			start, size = i, fixed
		}
		size += cost
	}
	return append(parts, execResBody{first: start, results: results[start:]})
}
