package rt

import (
	"testing"

	"indexlaunch/internal/domain"
)

// FuzzDecodeClusterPayload locks in the safety contract of the decoder
// every shipped slice now passes through (in-process deliveries and idxnode
// workers alike): DecodeClusterPayload never panics and never over-allocates
// regardless of input, a decode error yields no message, and anything it
// accepts re-encodes to bytes that decode to the same message. The
// committed corpus under testdata/fuzz/FuzzDecodeClusterPayload seeds the
// interesting shapes — dense and sparse slices, torn and mistyped payloads
// (among them the retired resync kind, 2, which must be rejected) — and CI
// runs a short -fuzz smoke on top.
func FuzzDecodeClusterPayload(f *testing.F) {
	dense := encodeSlicePayload(7, Slice{Domain: domain.Range1(5, 25), Node: 2})
	sparse := encodeSlicePayload(0, Slice{
		Domain: domain.DiagonalSlice3(domain.Rect{Lo: domain.Pt3(0, 0, 0), Hi: domain.Pt3(3, 3, 3)}, 4), Node: 1})
	f.Add(dense)
	f.Add(sparse)
	f.Add([]byte{2, 0x11}) // the retired resync kind
	f.Add(dense[:len(dense)/2])
	f.Add(sparse[:len(sparse)-1])
	f.Add([]byte{})
	f.Add([]byte{99})
	f.Add([]byte{clusterPayloadSlice, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeClusterPayload(data)
		if err != nil {
			if msg.Kind != "" || msg.Index != 0 || msg.Slice.Node != 0 || !msg.Slice.Domain.Empty() {
				t.Fatalf("error %v returned message %+v", err, msg)
			}
			return
		}
		if msg.Kind != "slice" {
			t.Fatalf("accepted payload decoded to unknown kind %q", msg.Kind)
		}
		msg2, err := DecodeClusterPayload(encodeSlicePayload(msg.Index, msg.Slice))
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if msg2.Kind != msg.Kind || msg2.Index != msg.Index ||
			msg2.Slice.Node != msg.Slice.Node || !msg2.Slice.Domain.Eq(msg.Slice.Domain) {
			t.Fatalf("re-encode not canonical:\n got %+v\nwant %+v", msg2, msg)
		}
	})
}
