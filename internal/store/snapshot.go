package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

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

var snapMagic = []byte("ZSNAP3")

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
	bw := bufio.NewWriter(f)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	// Tee the body through the checksum so the trailing CRC covers
	// exactly what a reader will verify.
	sum := crc32.NewIEEE()
	w := io.MultiWriter(bw, sum)
	var vbuf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(vbuf[:], v)
		_, err := w.Write(vbuf[:n])
		return err
	}
	if err := writeUvarint(seq); err != nil {
		return err
	}
	lists, err := m.Lists()
	if err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(lists))); err != nil {
		return err
	}
	var ebuf []byte // one element record at a time, reused
	for _, id := range lists {
		var viewErr error
		// Version, elements and leaves are read under one lock
		// acquisition (viewCommitted), so a live export — writers
		// active on other lists — can never pair a version with
		// another version's content.
		err := m.viewCommitted(id, func(version uint64, elems []Element, leaves []proof.Hash) {
			if viewErr = writeUvarint(uint64(id)); viewErr != nil {
				return
			}
			if viewErr = writeUvarint(version); viewErr != nil {
				return
			}
			if viewErr = writeUvarint(uint64(len(elems))); viewErr != nil {
				return
			}
			for _, el := range elems {
				ebuf = AppendElement(ebuf[:0], el)
				if _, viewErr = w.Write(ebuf); viewErr != nil {
					return
				}
			}
			if leaves == nil {
				_, viewErr = w.Write([]byte{0})
				return
			}
			if _, viewErr = w.Write([]byte{1}); viewErr != nil {
				return
			}
			for i := range leaves {
				if _, viewErr = w.Write(leaves[i][:]); viewErr != nil {
					return
				}
			}
		})
		if err != nil {
			// The list vanished between Lists and View (unreachable
			// today — lists are never dropped — but kept defensive);
			// write it as empty to keep the count honest.
			if errors.Is(err, ErrUnknownList) {
				if err := writeUvarint(uint64(id)); err != nil {
					return err
				}
				if err := writeUvarint(0); err != nil {
					return err
				}
				if err := writeUvarint(0); err != nil {
					return err
				}
				if _, err := w.Write([]byte{0}); err != nil {
					return err
				}
				continue
			}
			return err
		}
		if viewErr != nil {
			return viewErr
		}
	}
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], sum.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
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
// core of crash recovery and snapshot import. It validates the whole dump (CRC, then per-element framing)
// but builds no list: each list is registered lazily with its
// validated byte region, and decoding happens on first touch.
// Recovery cost at open is therefore one sequential scan, with zero
// per-element allocation.
func decodeSnapshot(data []byte) (seq uint64, m *Memory, _ error) {
	m = NewMemory()
	if len(data) < len(snapMagic)+4 || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return 0, nil, fmt.Errorf("%w: missing magic", ErrBadSnapshot)
	}
	body := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	rd := newByteCursor(body)
	seq, err := binary.ReadUvarint(rd)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	numLists, err := binary.ReadUvarint(rd)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for i := uint64(0); i < numLists; i++ {
		id, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: list %d: %v", ErrBadSnapshot, i, err)
		}
		version, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: list %d: %v", ErrBadSnapshot, i, err)
		}
		n, err := binary.ReadUvarint(rd)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: list %d: %v", ErrBadSnapshot, i, err)
		}
		if n > uint64(rd.remaining()) {
			return 0, nil, fmt.Errorf("%w: list %d claims %d elements with %d bytes left", ErrBadSnapshot, i, n, rd.remaining())
		}
		// Walk the list's elements validating only framing — no Element
		// is built, no byte copied. The validated region is what the
		// lazy list decodes on first touch.
		start := rd.off
		for j := uint64(0); j < n; j++ {
			if _, err := binary.ReadVarint(rd); err != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if _, err := rd.take(8); err != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			sl, err := binary.ReadUvarint(rd)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
			if _, err := rd.take(int(sl)); err != nil {
				return 0, nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
			}
		}
		elemRegion := body[start:rd.off]
		if uint64(len(elemRegion)) > maxSlab {
			return 0, nil, fmt.Errorf("%w: list %d: %d element bytes exceed a list's payload bound", ErrBadSnapshot, i, len(elemRegion))
		}
		var leafRegion []byte
		flag, err := rd.take(1)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: list %d leaf flag: %v", ErrBadSnapshot, i, err)
		}
		switch flag[0] {
		case 0:
		case 1:
			if n > uint64(rd.remaining())/proof.HashSize {
				return 0, nil, fmt.Errorf("%w: list %d claims %d leaves with %d bytes left", ErrBadSnapshot, i, n, rd.remaining())
			}
			leafRegion, err = rd.take(int(n) * proof.HashSize)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: list %d leaves: %v", ErrBadSnapshot, i, err)
			}
		default:
			return 0, nil, fmt.Errorf("%w: list %d leaf flag %d", ErrBadSnapshot, i, flag[0])
		}
		m.loadLazy(zerber.ListID(id), elemRegion, int(n), version, leafRegion)
	}
	if rd.remaining() != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, rd.remaining())
	}
	return seq, m, nil
}

// eachElement walks one list's element region that decodeSnapshot
// already validated, calling fn with each of its n elements' group,
// TRS, and the offset and length of its payload within raw. The region
// was framing-checked at load by the same ReadElement, so a decode
// error here can only be a bug and panics, deliberately loud.
func eachElement(raw []byte, n int, fn func(group int, trs float64, off, size int)) {
	rest := raw
	for j := 0; j < n; j++ {
		el, next, err := ReadElement(rest)
		if err != nil {
			panic(fmt.Sprintf("store: validated snapshot region fails to decode at element %d: %v", j, err))
		}
		end := len(raw) - len(next)
		fn(el.Group, el.TRS, end-len(el.Sealed), len(el.Sealed))
		rest = next
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
