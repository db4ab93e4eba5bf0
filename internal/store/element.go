package store

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// The element record — the one binary form of a posting element, shared
// by the write-ahead log (insert and insertBatch payloads), the ZSNAP3
// snapshot and the protocol's wire frames (internal/server/wire.go):
//
//	element: group (signed varint) | trs (8B IEEE-754 big-endian) |
//	         sealedLen (unsigned varint) | sealed
//
// The TRS travels as its bit pattern, so every value (NaN payloads and
// negative zero included) round-trips exactly.

// MinElementBytes is the shortest encoding of an element: one byte of
// group, eight of TRS, one of length. Decoders bound a claimed element
// count by the bytes that remain divided by it before allocating.
const MinElementBytes = 10

// ErrShortElement reports an element record cut off before its end.
var ErrShortElement = errors.New("store: truncated element record")

// AppendElement appends el's record to buf.
func AppendElement(buf []byte, el Element) []byte {
	buf = binary.AppendVarint(buf, int64(el.Group))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(el.TRS))
	buf = binary.AppendUvarint(buf, uint64(len(el.Sealed)))
	return append(buf, el.Sealed...)
}

// ReadElement decodes the record at the head of b and returns what
// follows it. Sealed aliases b, capped to its own length so an append
// to it can never reach the neighbouring record: whoever keeps the
// element past the life of b copies it at the point of retention.
func ReadElement(b []byte) (el Element, rest []byte, err error) {
	group, n := binary.Varint(b)
	if n <= 0 || len(b)-n < 8 {
		return Element{}, nil, ErrShortElement
	}
	b = b[n:]
	trs := math.Float64frombits(binary.BigEndian.Uint64(b))
	b = b[8:]
	size, n := binary.Uvarint(b)
	if n <= 0 || size > uint64(len(b)-n) {
		return Element{}, nil, ErrShortElement
	}
	b = b[n:]
	return Element{Sealed: b[:size:size], TRS: trs, Group: int(group)}, b[size:], nil
}

// byteCursor is a minimal io.ByteReader over a slice with bulk takes.
type byteCursor struct {
	buf []byte
	off int
}

func newByteCursor(b []byte) *byteCursor { return &byteCursor{buf: b} }

func (c *byteCursor) ReadByte() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || n > len(c.buf)-c.off {
		return nil, io.ErrUnexpectedEOF
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

// element reads one element record at the cursor (ReadElement).
func (c *byteCursor) element() (Element, error) {
	el, rest, err := ReadElement(c.buf[c.off:])
	if err != nil {
		return Element{}, err
	}
	c.off = len(c.buf) - len(rest)
	return el, nil
}

func (c *byteCursor) remaining() int { return len(c.buf) - c.off }
