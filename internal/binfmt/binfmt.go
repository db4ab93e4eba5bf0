// Package binfmt is the one reader of the repository's binary formats:
// the protocol's wire frames (internal/server/wire.go), the element,
// op-list and token records inside them (internal/store,
// internal/crypt), the write-ahead log and the snapshot
// (internal/store), and the offline artifacts — the merge plan
// (internal/zerber) and the RSTF store (internal/rstf). Each format
// keeps its own grammar; all of them decode through a Reader, so every
// one refuses the same things the same way:
//
//   - a read past the end of the input (ErrTruncated);
//   - a varint longer than its value needs, so an encoding is unique
//     (Go's binary.Append* and Put* write only the shortest form);
//   - a count larger than the bytes that remain could hold, before
//     anything is allocated for it (Count).
//
// A Reader is a value: copying one is a free look-ahead.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports input that ends inside a field.
var ErrTruncated = errors.New("truncated")

// Reader is a bounded cursor over an encoded input. The first malformed
// field sticks in Err and every later read returns zero values, so a
// decoder checks once per structure instead of once per field. Every
// failure wraps the format's own error, the kind NewReader was given.
// Byte strings it returns alias the input, capped to their own length
// so an append to one can never reach the bytes after it.
type Reader struct {
	b    []byte // unread input
	size int    // length of the whole input
	kind error
	err  error
}

// NewReader returns a Reader over b whose failures wrap kind.
func NewReader(b []byte, kind error) Reader {
	return Reader{b: b, size: len(b), kind: kind}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Offset returns the number of bytes consumed.
func (r *Reader) Offset() int { return r.size - len(r.b) }

// Fail records a failure of the format's kind unless one is recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.kind, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) truncated(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %w: %d bytes wanted, %d left", r.kind, ErrTruncated, n, len(r.b))
	}
}

// End returns Err, after failing if any byte is left unread.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// Bytes reads the next n bytes.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.truncated(n)
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Prefixed reads a byte string after its unsigned varint length.
func (r *Reader) Prefixed() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.truncated(int(min(n, math.MaxInt)))
		return nil
	}
	return r.Bytes(int(n))
}

// Magic reads len(m) bytes and fails unless they are m.
func (r *Reader) Magic(m string) {
	if got := r.Bytes(len(m)); r.err == nil && string(got) != m {
		r.Fail("magic %q, want %q", got, m)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || len(r.b) == 0 {
		r.truncated(1)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uint32 reads 4 bytes big-endian.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.truncated(4)
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// Uint64 reads 8 bytes big-endian.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.truncated(8)
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Float64 reads an IEEE-754 bit pattern, 8 bytes big-endian, so every
// value (NaN payloads and negative zero included) round-trips exactly.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if !r.skipVarint(n) {
		return 0
	}
	return v
}

// Varint reads a signed varint in its shortest form.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if !r.skipVarint(n) {
		return 0
	}
	return v
}

// skipVarint consumes the n bytes a varint read returned, or fails: on
// a truncated or overflowing varint, and on one longer than its value
// needs, which is the only kind that ends in a zero byte.
func (r *Reader) skipVarint(n int) bool {
	switch {
	case n == 0:
		r.truncated(1)
		return false
	case n < 0 || n > 1 && r.b[n-1] == 0:
		r.Fail("overflowing or non-minimal varint")
		return false
	}
	r.b = r.b[n:]
	return true
}

// Int reads an unsigned varint that must fit a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Uvarint32 reads an unsigned varint that must fit 32 bits, so an ID
// past 2³²−1 fails instead of wrapping into a 32-bit type.
func (r *Reader) Uvarint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.Fail("%d past 32 bits", v)
		return 0
	}
	return uint32(v)
}

// Count reads an item count and bounds it by the bytes that remain,
// each item taking at least minBytes: no claimed count can make a
// decoder allocate more than a small multiple of its input.
func (r *Reader) Count(what string, minBytes int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.Fail("%d %s claimed with %d bytes left", v, what, len(r.b))
		return 0
	}
	return int(v)
}
