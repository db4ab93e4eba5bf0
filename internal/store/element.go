package store

import (
	"encoding/binary"
	"math"

	"zerberr/internal/binfmt"
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

// AppendElement appends el's record to buf.
func AppendElement(buf []byte, el Element) []byte {
	buf = binary.AppendVarint(buf, int64(el.Group))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(el.TRS))
	buf = binary.AppendUvarint(buf, uint64(len(el.Sealed)))
	return append(buf, el.Sealed...)
}

// ReadElement reads an element record. Sealed aliases the reader's
// input (binfmt.Reader): whoever keeps the element past the life of
// that input copies it at the point of retention.
func ReadElement(r *binfmt.Reader) Element {
	group := r.Varint()
	trs := r.Float64()
	return Element{Sealed: r.Prefixed(), TRS: trs, Group: int(group)}
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
// outside 0..2³²−1 is an error, never a wrapped ID. Payloads alias the
// input, as ReadElement's do.

// AppendListDelta appends list's delta against prev, the list before it.
func AppendListDelta(buf []byte, list, prev zerber.ListID) []byte {
	return binary.AppendVarint(buf, int64(list)-int64(prev))
}

// ReadListDelta reads a list delta against prev and returns the list it
// names: the op lists here and the /v2/query request frame's
// sub-queries, whose list IDs travel as the same deltas, both decode
// through it.
func ReadListDelta(r *binfmt.Reader, prev zerber.ListID) zerber.ListID {
	return checkListID(r, int64(prev)+r.Varint())
}

// checkListID checks that a decoded list ID fits zerber.ListID. (An
// unsigned ID past 2⁶³−1 converts to a negative v and fails too.)
func checkListID(r *binfmt.Reader, v int64) zerber.ListID {
	if v < 0 || v > math.MaxUint32 {
		r.Fail("list id %d out of range", v)
		return 0
	}
	return zerber.ListID(v)
}

// AppendInserts appends ops as an insert op list.
func AppendInserts(buf []byte, ops []BatchInsert) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := zerber.ListID(0)
	for i := range ops {
		buf = AppendListDelta(buf, ops[i].List, prev)
		prev = ops[i].List
		buf = AppendElement(buf, ops[i].Element)
	}
	return buf
}

// AppendRemoves appends ops as a remove op list.
func AppendRemoves(buf []byte, ops []BatchRemove) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := zerber.ListID(0)
	for i := range ops {
		buf = AppendListDelta(buf, ops[i].List, prev)
		prev = ops[i].List
		buf = binary.AppendUvarint(buf, uint64(len(ops[i].Sealed)))
		buf = append(buf, ops[i].Sealed...)
	}
	return buf
}

// ReadInserts reads an insert op list.
func ReadInserts(r *binfmt.Reader) []BatchInsert {
	return readOps(r, 1+MinElementBytes, func(r *binfmt.Reader, list zerber.ListID) BatchInsert {
		return BatchInsert{List: list, Element: ReadElement(r)}
	})
}

// ReadRemoves reads a remove op list.
func ReadRemoves(r *binfmt.Reader) []BatchRemove {
	return readOps(r, 2, func(r *binfmt.Reader, list zerber.ListID) BatchRemove {
		return BatchRemove{List: list, Sealed: r.Prefixed()}
	})
}

// readOps reads an op list whose shortest entry is minEntry bytes,
// reading each entry after its list ID with entry. It returns nil if
// the list does not decode.
func readOps[T any](r *binfmt.Reader, minEntry int, entry func(*binfmt.Reader, zerber.ListID) T) []T {
	ops := make([]T, r.Count("ops", minEntry))
	list := zerber.ListID(0)
	for i := range ops {
		list = ReadListDelta(r, list)
		if ops[i] = entry(r, list); r.Err() != nil {
			return nil
		}
	}
	return ops
}
