package wire

import (
	"reflect"
	"testing"

	"indexlaunch/internal/domain"
)

// FuzzDecodeFrame locks in the codec's safety contract: DecodeFrame never
// panics and never over-allocates regardless of input, and anything it does
// accept re-encodes to a frame that decodes identically (the decoder is a
// function, not a heuristic). The committed corpus under
// testdata/fuzz/FuzzDecodeFrame seeds the interesting shapes — valid frames
// of every kind, torn prefixes, flipped CRCs — and CI runs a short -fuzz
// smoke on top.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(EncodeFrame(fr))
	}
	// Torn, corrupt and degenerate seeds.
	data := EncodeFrame(sampleFrames()[2])
	f.Add(data[:len(data)/2])
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if fr != nil || n != 0 {
				t.Fatalf("error %v returned frame %+v consumed %d", err, fr, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted frames must round-trip bit-for-bit through the encoder.
		re := EncodeFrame(fr)
		fr2, n2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if n2 != len(re) || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("re-encode not canonical:\n got %+v\nwant %+v", fr2, fr)
		}
	})
}

// FuzzDecodeExecSlice locks in the same contract for the two Exec bodies —
// the request of one or more slices a worker expands into point tasks and
// the result it answers with: neither decoder panics or sizes an
// allocation by a count — slices, points, payloads, results — the
// remaining bytes cannot back, a decode error yields nothing, an accepted
// request holds at most maxSlicePoints points in all, and an accepted body
// re-encodes to bytes that decode equal. Every input is fed to both
// decoders. The committed corpus under testdata/fuzz/FuzzDecodeExecSlice
// seeds dense 1-D/2-D and sparse 3-D slices, per-point payloads, requests
// of several slices, mixed ok/error results, torn tails and forged counts.
func FuzzDecodeExecSlice(f *testing.F) {
	for _, r := range sampleExecRequests() {
		f.Add(encodeExecReq(2, r))
	}
	multi := encodeExecReq(2, sampleExecRequests()...)
	f.Add(multi)
	f.Add(multi[:len(multi)-4])
	for _, body := range sampleExecResults() {
		f.Add(encodeExecRes(&body))
	}
	req := encodeExecReq(2, sampleExecRequests()[3])
	f.Add(req[:len(req)-2])
	res := encodeExecRes(&sampleExecResults()[1])
	f.Add(res[:len(res)-3])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		if rs, descs, err := decodeExecReq(data); err != nil {
			if rs != nil || descs != nil {
				t.Fatalf("error %v returned requests %+v", err, rs)
			}
		} else {
			var total int64
			for i, r := range rs {
				n := r.Domain.Volume()
				if total += n; n < 1 || total > maxSlicePoints || (r.PointArgs != nil && int64(len(r.PointArgs)) != n) {
					t.Fatalf("accepted slice %d of %d points with %d payloads, %d points so far", i, n, len(r.PointArgs), total)
				}
				_, node, _, derr := DecodeSlicePayload(descs[i])
				if derr != nil {
					t.Fatalf("accepted request carries an undecodable descriptor: %v", derr)
				}
				rs2, _, err := decodeExecReq(encodeExecReq(node, r))
				if err != nil {
					t.Fatalf("re-decode of accepted slice failed: %v", err)
				}
				if !sameRequest(r, rs2[0]) {
					t.Fatalf("slice re-encode not canonical:\n got %+v\nwant %+v", rs2[0], r)
				}
			}
		}
		body, err := decodeExecRes(data)
		if err != nil {
			if !reflect.DeepEqual(body, execResBody{}) {
				t.Fatalf("error %v returned result %+v", err, body)
			}
			return
		}
		body2, err := decodeExecRes(encodeExecRes(&body))
		if err != nil {
			t.Fatalf("re-decode of accepted result failed: %v", err)
		}
		if !reflect.DeepEqual(body, body2) {
			t.Fatalf("result re-encode not canonical:\n got %+v\nwant %+v", body2, body)
		}
	})
}

// FuzzDecodeSlicePayload locks in the same contract for the slice
// descriptor every worker's Deliver callback decodes: DecodeSlicePayload
// never panics or over-allocates, a decode error yields nothing, and an
// accepted descriptor re-encodes to bytes that decode equal. The committed
// corpus under testdata/fuzz/FuzzDecodeSlicePayload seeds dense and sparse
// slices, torn and mistyped payloads — among them the retired resync kind,
// 2, which must be rejected.
func FuzzDecodeSlicePayload(f *testing.F) {
	dense := AppendSlicePayload(nil, 7, 2, domain.Range1(5, 25))
	sparse := AppendSlicePayload(nil, 0, 1,
		domain.DiagonalSlice3(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(3, 3, 3)}, 4))
	f.Add(dense)
	f.Add(sparse)
	f.Add([]byte{2, 0x11}) // the retired resync kind
	f.Add(dense[:len(dense)/2])
	f.Add(sparse[:len(sparse)-1])
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{PayloadSlice, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, node, dom, err := DecodeSlicePayload(data)
		if err != nil {
			if idx != 0 || node != 0 || !dom.Empty() {
				t.Fatalf("error %v returned slice %d on node %d: %v", err, idx, node, dom)
			}
			return
		}
		idx2, node2, dom2, err := DecodeSlicePayload(AppendSlicePayload(nil, idx, node, dom))
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if idx2 != idx || node2 != node || !dom2.Eq(dom) {
			t.Fatalf("re-encode not canonical:\n got %d %d %v\nwant %d %d %v", idx2, node2, dom2, idx, node, dom)
		}
	})
}
