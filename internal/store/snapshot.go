package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"zerberr/internal/binfmt"
	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// Snapshot format (integers are unsigned varints unless noted, floats
// 64-bit IEEE big-endian):
//
//	magic "ZSNAP3" | body | crc32-IEEE(body) (4B big-endian)
//	body: seq | numLists |
//	  numLists × ( listID | version | numElems |
//	    numElems × element (the shared record, element.go) |
//	    leafFlag (1B: 0 or 1) |
//	    leafFlag × ( numElems × leafHash (32B) ) )
//
// Elements are written in rank order, so recovery can serve queries
// without re-sorting. seq is the last WAL sequence number the snapshot
// contains; recovery replays only WAL records beyond it. version is
// the list's mutation counter at snapshot time (Backend.Version):
// persisting it keeps versions monotonic across restarts, the property
// the query-result cache's invalidation rests on. The leaf block
// persists the list's Merkle commitment leaves (internal/proof) in
// the same merged rank order, present only when the live list had
// them materialized — a restarted shard recommits without re-hashing
// a single payload, and a list nobody ever audited pays no leaf
// bytes. Snapshots are written to a temp file and renamed into place,
// so a crash mid-write leaves the previous snapshot intact.
//
// This is the only generation read: no data was ever deployed under an
// earlier magic, and a dump carrying one is ErrBadSnapshot like any
// other unknown header.

const snapMagic = "ZSNAP3"

// ErrBadSnapshot reports a corrupted or truncated snapshot file.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// writeSnapshot atomically replaces the snapshot at path with the
// given state.
func writeSnapshot(path string, seq uint64, m *Memory) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := encodeSnapshot(f, seq, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func encodeSnapshot(f io.Writer, seq uint64, m *Memory) error {
	lists, err := m.Lists()
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	// Tee the body through the checksum so the trailing CRC covers
	// exactly what a reader will verify. The body is written one list
	// at a time from buf, which each list reuses.
	sum := crc32.NewIEEE()
	w := io.MultiWriter(bw, sum)
	buf := binary.AppendUvarint(binary.AppendUvarint(nil, seq), uint64(len(lists)))
	for _, id := range lists {
		// Version, elements and leaves are read under one lock
		// acquisition (viewCommitted), so a live export — writers
		// active on other lists — can never pair a version with
		// another version's content.
		err := m.viewCommitted(id, func(version uint64, elems []Element, leaves []proof.Hash) {
			buf = appendSnapshotList(buf, id, version, elems, leaves)
		})
		if errors.Is(err, ErrUnknownList) {
			// The list vanished between Lists and View (unreachable
			// today — lists are never dropped — but kept defensive);
			// write it as empty to keep the count honest.
			buf = appendSnapshotList(buf, id, 0, nil, nil)
		} else if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	if _, err := w.Write(buf); err != nil { // a store without lists
		return err
	}
	if _, err := bw.Write(binary.BigEndian.AppendUint32(nil, sum.Sum32())); err != nil {
		return err
	}
	return bw.Flush()
}

// appendSnapshotList appends one list's entry of the snapshot body.
func appendSnapshotList(buf []byte, id zerber.ListID, version uint64, elems []Element, leaves []proof.Hash) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(elems)))
	for _, el := range elems {
		buf = AppendElement(buf, el)
	}
	if leaves == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for i := range leaves {
		buf = append(buf, leaves[i][:]...)
	}
	return buf
}

// readSnapshot loads the snapshot at path into a fresh Memory. A
// missing file yields an empty store at sequence zero — a first boot.
//
// The file is mmapped where the platform allows (mapFile), so the
// decode below validates framing against page-cache-backed memory and
// the per-list element bytes are faulted in only when a list is first
// touched.
func readSnapshot(path string) (seq uint64, m *Memory, _ error) {
	data, err := mapFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, NewMemory(), nil
	}
	if err != nil {
		return 0, nil, err
	}
	return decodeSnapshot(data)
}

// decodeSnapshot parses a ZSNAP3 dump into a fresh Memory — the shared
// core of crash recovery and snapshot import. It validates the whole
// dump (CRC, then per-element framing) but builds no list: each list is
// registered lazily with its validated byte region, and decoding
// happens on first touch. Recovery cost at open is therefore one
// sequential scan, with zero per-element allocation.
func decodeSnapshot(data []byte) (seq uint64, m *Memory, _ error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: missing magic", ErrBadSnapshot)
	}
	body := data[len(snapMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	r := binfmt.NewReader(body, ErrBadSnapshot)
	seq = r.Uvarint()
	m = NewMemory()
	// A list's shortest entry is its ID, version, element count and leaf
	// flag, one byte each.
	for i, lists := 0, r.Count("lists", 4); i < lists && r.Err() == nil; i++ {
		id := checkListID(&r, int64(r.Uvarint()))
		version := r.Uvarint()
		n := r.Count("elements", MinElementBytes)
		// Walk the list's elements validating only framing — no byte is
		// copied. The validated region is what the lazy list decodes on
		// first touch.
		start := r.Offset()
		for j := 0; j < n && r.Err() == nil; j++ {
			ReadElement(&r)
		}
		elems := body[start:r.Offset()]
		if uint64(len(elems)) > maxSlab {
			r.Fail("list %d: %d element bytes exceed a list's payload bound", id, len(elems))
		}
		var leaves []byte
		switch flag := r.Byte(); flag {
		case 0:
		case 1:
			leaves = r.Bytes(n * proof.HashSize)
		default:
			r.Fail("list %d: leaf flag %d", id, flag)
		}
		if r.Err() == nil {
			m.loadLazy(id, elems, n, version, leaves)
		}
	}
	if err := r.End(); err != nil {
		return 0, nil, err
	}
	return seq, m, nil
}

// eachElement walks one list's element region that decodeSnapshot
// already validated, calling fn with each of its n elements' group,
// TRS, and the offset and length of its payload within raw. The region
// was framing-checked at load by the same ReadElement, so a decode
// error here can only be a bug and panics, deliberately loud.
func eachElement(raw []byte, n int, fn func(group int, trs float64, off, size int)) {
	r := binfmt.NewReader(raw, ErrBadSnapshot)
	for j := 0; j < n; j++ {
		el := ReadElement(&r)
		if err := r.Err(); err != nil {
			panic(fmt.Sprintf("store: validated snapshot region fails to decode at element %d: %v", j, err))
		}
		fn(el.Group, el.TRS, r.Offset()-len(el.Sealed), len(el.Sealed))
	}
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some platforms refuse to sync directories.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
