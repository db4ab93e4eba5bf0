package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/zerber"
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

// The op list — the one binary form of a batch of mutations, written
// after the token by the /v2/insert and /v2/remove frames
// (internal/server/wire.go) and after seq | kind by the WAL's batch
// records (wal.go):
//
//	inserts:   count | count × ( listDelta | element )
//	removes:   count | count × ( listDelta | sealedLen | sealed )
//	listDelta: signed varint against the previous entry's list, the
//	           first against 0 — batches are usually sorted or
//	           single-list, so an entry's list costs about a byte
//
// The readers trust no length they read: a count is bounded by the
// bytes that remain before anything is allocated for it, and a list ID
// outside 0..2³²−1 is an error, never a wrapped ID. Payloads alias b,
// as ReadElement's do.

// AppendInserts appends ops as an insert op list.
func AppendInserts(buf []byte, ops []BatchInsert) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := int64(0)
	for i := range ops {
		buf = binary.AppendVarint(buf, int64(ops[i].List)-prev)
		prev = int64(ops[i].List)
		buf = AppendElement(buf, ops[i].Element)
	}
	return buf
}

// AppendRemoves appends ops as a remove op list.
func AppendRemoves(buf []byte, ops []BatchRemove) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := int64(0)
	for i := range ops {
		buf = binary.AppendVarint(buf, int64(ops[i].List)-prev)
		prev = int64(ops[i].List)
		buf = binary.AppendUvarint(buf, uint64(len(ops[i].Sealed)))
		buf = append(buf, ops[i].Sealed...)
	}
	return buf
}

// ReadInserts decodes the insert op list at the head of b and returns
// what follows it.
func ReadInserts(b []byte) ([]BatchInsert, []byte, error) {
	return readOps(b, 1+MinElementBytes, readInsert)
}

// ReadRemoves decodes the remove op list at the head of b and returns
// what follows it.
func ReadRemoves(b []byte) ([]BatchRemove, []byte, error) {
	return readOps(b, 2, readRemove)
}

// errShortOp reports an op-list entry cut off before its end.
var errShortOp = errors.New("truncated op-list entry")

// readOps reads an op list whose shortest entry is minEntry bytes,
// reading each entry after its list ID with entry.
func readOps[T any](b []byte, minEntry int, entry func(b []byte, list zerber.ListID) (T, []byte, error)) ([]T, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, errShortOp
	}
	b = b[n:]
	if count > uint64(len(b)/minEntry) {
		return nil, nil, fmt.Errorf("%d ops claimed with %d bytes left", count, len(b))
	}
	ops := make([]T, count)
	prev := int64(0)
	for i := range ops {
		delta, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, errShortOp
		}
		prev += delta
		list, err := CheckListID(prev)
		if err != nil {
			return nil, nil, err
		}
		if ops[i], b, err = entry(b[n:], list); err != nil {
			return nil, nil, err
		}
	}
	return ops, b, nil
}

// CheckListID checks that a decoded list ID fits zerber.ListID: the
// op lists here and the /v2/query request frame's sub-queries, whose
// list IDs travel as the same deltas, both decode through it. (An
// unsigned ID past 2⁶³−1 converts to a negative v and fails too.)
func CheckListID(v int64) (zerber.ListID, error) {
	if v < 0 || v > math.MaxUint32 {
		return 0, fmt.Errorf("list id %d out of range", v)
	}
	return zerber.ListID(v), nil
}

func readInsert(b []byte, list zerber.ListID) (BatchInsert, []byte, error) {
	el, rest, err := ReadElement(b)
	return BatchInsert{List: list, Element: el}, rest, err
}

func readRemove(b []byte, list zerber.ListID) (BatchRemove, []byte, error) {
	size, n := binary.Uvarint(b)
	if n <= 0 || size > uint64(len(b)-n) {
		return BatchRemove{}, nil, errShortOp
	}
	b = b[n:]
	return BatchRemove{List: list, Sealed: b[:size:size]}, b[size:], nil
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

func (c *byteCursor) remaining() int { return len(c.buf) - c.off }
