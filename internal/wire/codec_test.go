package wire

import (
	"bufio"
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"indexlaunch/internal/obs"
)

// sampleFrames returns one representative frame per kind, plus edge shapes
// (empty body, empty tag, long route, traced and untraced).
func sampleFrames() []*Frame {
	return []*Frame{
		{Kind: KindHello, Src: 1, Dst: 0, Gen: 7, Body: encodeAddrTable(map[int]string{0: "127.0.0.1:9000", 2: "127.0.0.1:9002"})},
		{Kind: KindWelcome, Src: 0, Dst: 1, Gen: 7},
		{Kind: KindData, Src: 0, Dst: 1, Seq: 42, Gen: 3, Key: 5,
			TC:    obs.TraceRef{Trace: 0xdead, Span: 0xbeef, Parent: 0xcafe},
			Route: []int{1, 3, 7}, Tag: "resync", Body: []byte("payload bytes")},
		{Kind: KindAck, Src: 1, Dst: 0, Seq: 42, Gen: 3},
		// Multi-byte varints, and a data frame on its last relay hop.
		{Kind: KindAck, Src: 2, Dst: 0, Seq: 1 << 40, Gen: 1 << 33},
		{Kind: KindData, Src: 1, Dst: 3, Seq: 9, Gen: 3, Key: 5, Route: []int{3}, Tag: "resync"},
		{Kind: KindExec, Src: 0, Dst: 2, Seq: 1, Gen: 1, Key: 4, Route: []int{2},
			Tag: "sched_spin", Body: []byte{1, 2, 3, 4}},
		{Kind: KindResult, Src: 2, Dst: 0, Seq: 0, Gen: 1, Key: 4, Route: []int{0},
			Tag: "sched_spin", Body: bytes.Repeat([]byte{0xAB}, 1024)},
		{Kind: KindData, Src: 3, Dst: 4, Flags: 0xF00D}, // everything empty
	}
}

func TestCodecRoundTripAllKinds(t *testing.T) {
	for _, f := range sampleFrames() {
		buf := EncodeFrame(f)
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d bytes", f.Kind, n, len(buf))
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", f.Kind, got, f)
		}
	}
}

func TestCodecDecodeConsumesOneFrameFromConcatenation(t *testing.T) {
	frames := sampleFrames()
	var buf []byte
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
		buf = buf[n:]
	}
}

// Every single-byte corruption must surface as an error (almost always the
// CRC), never as a silently wrong frame or a panic.
func TestCodecDetectsEveryFlippedBit(t *testing.T) {
	f := sampleFrames()[2] // the data frame exercises every field
	clean := EncodeFrame(f)
	want, _, _ := DecodeFrame(clean)
	for i := range clean {
		corrupt := append([]byte(nil), clean...)
		corrupt[i] ^= 0x40
		got, _, err := DecodeFrame(corrupt)
		if err == nil && reflect.DeepEqual(got, want) {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

// Every truncation of a valid frame must yield ErrShort (more bytes needed)
// or a hard error — never a panic, never a frame.
func TestCodecTornFrames(t *testing.T) {
	clean := EncodeFrame(sampleFrames()[2])
	for n := 0; n < len(clean); n++ {
		got, _, err := DecodeFrame(clean[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded to %+v", n, got)
		}
	}
	// The canonical torn read: a prefix must report ErrShort so a stream
	// reader knows to wait for more bytes rather than reset the conn.
	if _, _, err := DecodeFrame(clean[:len(clean)/2]); !errors.Is(err, ErrShort) {
		t.Fatalf("half frame: got %v, want ErrShort", err)
	}
}

func TestCodecRejectsOversizeAndAbsurdLengths(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01} // uvarint ~2^63
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("2^63 length: got %v, want ErrTooLarge", err)
	}
	if _, _, err := DecodeFrame([]byte{3, 0, 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length 3: got %v, want ErrCorrupt", err)
	}
	// A frame whose route length claims more entries than bytes remain must
	// be caught by bounds checks, not by a giant allocation.
	f := &Frame{Kind: KindData, Route: []int{1}}
	enc := EncodeFrame(f)
	if _, _, err := DecodeFrame(enc); err != nil {
		t.Fatalf("baseline: %v", err)
	}
}

func TestCodecRejectsWrongVersionAndKind(t *testing.T) {
	mangle := func(mutate func(framed []byte)) error {
		f := &Frame{Kind: KindAck, Src: 1, Dst: 2, Seq: 3}
		enc := EncodeFrame(f)
		// Layout: uvarint len || framed || crc. Re-frame with a mutated
		// header and a recomputed CRC so only the semantic check can fire.
		_, n, err := DecodeFrame(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("baseline: %v", err)
		}
		var lenN int
		for lenN = 0; enc[lenN]&0x80 != 0; lenN++ {
		}
		lenN++
		framed := append([]byte(nil), enc[lenN:len(enc)-4]...)
		mutate(framed)
		out := append([]byte(nil), enc[:lenN]...)
		out = append(out, framed...)
		out = append(out, crcOf(framed)...)
		_, _, derr := DecodeFrame(out)
		return derr
	}
	if err := mangle(func(b []byte) { b[0] = Version + 1 }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("future version: got %v, want ErrCorrupt", err)
	}
	for _, kind := range []byte{0, 5, 6} { // unassigned, and the two retired kinds
		if err := mangle(func(b []byte) { b[1] = kind }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("kind %d: got %v, want ErrCorrupt", kind, err)
		}
	}
	if err := mangle(func(b []byte) { b[1] = byte(KindResult) + 1 }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind beyond range: got %v, want ErrCorrupt", err)
	}
}

func crcOf(framed []byte) []byte {
	c := crc32.Checksum(framed, castagnoli)
	return []byte{byte(c), byte(c >> 8), byte(c >> 16), byte(c >> 24)}
}

func TestReadFrameStream(t *testing.T) {
	frames := sampleFrames()
	var stream bytes.Buffer
	for _, f := range frames {
		if _, err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&stream)
	for i := range frames {
		got, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameMidFrameEOF(t *testing.T) {
	enc := EncodeFrame(sampleFrames()[2])
	br := bufio.NewReader(bytes.NewReader(enc[:len(enc)-3]))
	if _, err := ReadFrame(br); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream: got %v, want io.ErrUnexpectedEOF", err)
	}
}
