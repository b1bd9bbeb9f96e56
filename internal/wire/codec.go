package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format. One frame on the wire is
//
//	uvarint n        total length of the framed bytes that follow
//	n-4 bytes        header + body (layout below)
//	u32le crc        CRC32C (Castagnoli) of the n-4 framed bytes
//
// and the framed bytes are
//
//	u8       version (Version)
//	u8       kind
//	u16le    flags
//	uvarint  src, dst
//	uvarint  seq, gen, key
//	u64le ×3 trace, span, parent (zero triple = untraced)
//	uvarint  route length, then that many uvarint node ids
//	uvarint  tag length, then the tag bytes
//	uvarint  body length, then the body bytes
//
// The CRC covers everything inside the length prefix, so a flipped bit
// anywhere in the header or body is detected before any field is trusted.
// Every length is validated against the enclosing frame before allocation:
// a torn or hostile prefix yields an error, never a panic or an absurd
// allocation — the property the fuzz harness locks in.

// MaxFrameSize bounds one encoded frame. Slices and exec payloads are
// small; anything larger is a corrupt length prefix.
const MaxFrameSize = 1 << 20

// maxRouteLen bounds a relay route; a broadcast tree over n nodes never
// routes deeper than log2(n), so 64 covers any feasible mesh.
const maxRouteLen = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrCorrupt covers CRC mismatches and malformed fields;
// ErrShort means the buffer ends before the frame does (read more bytes and
// retry); ErrTooLarge rejects length prefixes beyond MaxFrameSize.
var (
	ErrCorrupt  = errors.New("wire: corrupt frame")
	ErrShort    = errors.New("wire: short frame")
	ErrTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
)

// AppendFrame encodes f and appends the framed bytes to buf, returning the
// extended slice. Encode cost is one pass plus the CRC; callers reuse buf
// across frames to stay allocation-light.
func AppendFrame(buf []byte, f *Frame) []byte {
	// Encode header+body into scratch after a reserved region so the
	// varint length prefix can be placed without a second copy... the
	// simple route: encode the framed bytes, then prepend.
	framed := make([]byte, 0, 64+len(f.Tag)+len(f.Body))
	framed = append(framed, Version, byte(f.Kind))
	framed = binary.LittleEndian.AppendUint16(framed, f.Flags)
	framed = binary.AppendUvarint(framed, uint64(f.Src))
	framed = binary.AppendUvarint(framed, uint64(f.Dst))
	framed = binary.AppendUvarint(framed, f.Seq)
	framed = binary.AppendUvarint(framed, f.Gen)
	framed = binary.AppendUvarint(framed, f.Key)
	framed = binary.LittleEndian.AppendUint64(framed, f.TC.Trace)
	framed = binary.LittleEndian.AppendUint64(framed, f.TC.Span)
	framed = binary.LittleEndian.AppendUint64(framed, f.TC.Parent)
	framed = binary.AppendUvarint(framed, uint64(len(f.Route)))
	for _, n := range f.Route {
		framed = binary.AppendUvarint(framed, uint64(n))
	}
	framed = binary.AppendUvarint(framed, uint64(len(f.Tag)))
	framed = append(framed, f.Tag...)
	framed = binary.AppendUvarint(framed, uint64(len(f.Body)))
	framed = append(framed, f.Body...)

	total := uint64(len(framed) + 4)
	buf = binary.AppendUvarint(buf, total)
	buf = append(buf, framed...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(framed, castagnoli))
}

// EncodeFrame encodes f into a fresh buffer.
func EncodeFrame(f *Frame) []byte { return AppendFrame(nil, f) }

// DecodeFrame decodes one frame from the front of buf, returning the frame
// and the number of bytes consumed. ErrShort means buf holds a frame
// prefix; every other error means the stream is unrecoverable at this
// offset.
func DecodeFrame(buf []byte) (*Frame, int, error) {
	total, n := binary.Uvarint(buf)
	if n == 0 {
		return nil, 0, ErrShort
	}
	if n < 0 || total > MaxFrameSize {
		return nil, 0, ErrTooLarge
	}
	if total < 4+2 {
		return nil, 0, fmt.Errorf("%w: impossible length %d", ErrCorrupt, total)
	}
	if uint64(len(buf)-n) < total {
		return nil, 0, ErrShort
	}
	framed := buf[n : n+int(total)-4]
	crc := binary.LittleEndian.Uint32(buf[n+int(total)-4 : n+int(total)])
	if crc32.Checksum(framed, castagnoli) != crc {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	f, err := decodeFramed(framed)
	if err != nil {
		return nil, 0, err
	}
	return f, n + int(total), nil
}

// decodeFramed parses the CRC-verified header+body bytes.
func decodeFramed(b []byte) (*Frame, error) {
	d := NewCursor(b)
	ver := d.U8()
	kind := Kind(d.U8())
	var f Frame
	f.Kind = kind
	f.Flags = d.U16()
	f.Src = d.Int()
	f.Dst = d.Int()
	f.Seq = d.Uvarint()
	f.Gen = d.Uvarint()
	f.Key = d.Uvarint()
	f.TC.Trace = d.U64()
	f.TC.Span = d.U64()
	f.TC.Parent = d.U64()
	routeLen := d.Uvarint()
	if d.err == nil && routeLen > maxRouteLen {
		return nil, fmt.Errorf("%w: route length %d", ErrCorrupt, routeLen)
	}
	if d.err == nil && routeLen > 0 {
		f.Route = make([]int, routeLen)
		for i := range f.Route {
			f.Route[i] = d.Int()
		}
	}
	f.Tag = string(d.Bytes())
	f.Body = d.Bytes()
	if d.err != nil {
		return nil, d.err
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Rest())
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, ver, Version)
	}
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	return &f, nil
}

// Cursor is a bounds-checked reader over encoded bytes: the first failed
// read latches Err and every later read returns zero, so field parsing
// reads linearly without per-field error plumbing. It is the one byte
// cursor of the wire formats — frames, exec bodies, address tables and
// internal/rt's cluster payloads all parse through it.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor starts a cursor at the front of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the latched error: nil until a read ran past the bytes.
func (d *Cursor) Err() error { return d.err }

// Rest returns the number of unread bytes.
func (d *Cursor) Rest() int { return len(d.b) - d.off }

// Fail latches a truncated-field error unless one is latched already.
func (d *Cursor) Fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated field", ErrCorrupt)
	}
}

func (d *Cursor) U8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.Fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Cursor) U16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *Cursor) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Cursor) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Varint decodes a zigzag-encoded signed value (point coordinates).
func (d *Cursor) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Int decodes a uvarint bounded to non-negative int range (node ids).
func (d *Cursor) Int() int {
	v := d.Uvarint()
	if d.err == nil && v > 1<<31 {
		d.Fail()
		return 0
	}
	return int(v)
}

// Bytes decodes a uvarint-prefixed byte field, validated against the
// remaining buffer before any allocation, into a fresh copy.
func (d *Cursor) Bytes() []byte {
	v := d.View()
	if v == nil {
		return nil
	}
	return append([]byte(nil), v...)
}

// View is Bytes without the copy: the field as a sub-slice of the cursor's
// buffer — for decoders whose input is already private and immutable (a
// delivered frame's body).
func (d *Cursor) View() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Rest()) {
		d.Fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return out
}

// ReadFrame reads one frame from a buffered stream. io.EOF at a frame
// boundary is returned as io.EOF; EOF mid-frame is io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader) (*Frame, error) {
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if total > MaxFrameSize {
		return nil, ErrTooLarge
	}
	if total < 4+2 {
		return nil, fmt.Errorf("%w: impossible length %d", ErrCorrupt, total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	framed := buf[:total-4]
	crc := binary.LittleEndian.Uint32(buf[total-4:])
	if crc32.Checksum(framed, castagnoli) != crc {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return decodeFramed(framed)
}

// WriteFrame appends f's encoding to w (typically a bufio.Writer whose
// owner coalesces flushes).
func WriteFrame(w io.Writer, f *Frame) (int, error) {
	return w.Write(EncodeFrame(f))
}
