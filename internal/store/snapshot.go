package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

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
// conditional reads (one version, one content) rest on. The writer
// always writes leafFlag 0. A leaf block (flag 1) is what writers wrote
// while a tree had one leaf per element: one hash per element in merged
// rank order, which cannot hold a group's buckets (internal/proof), so
// the reader skips it unread and the list's first proved read after
// recovery hashes its buckets. Snapshots are written to a temp file and
// renamed into place, so a crash mid-write leaves the previous snapshot
// intact.
//
// This is the only generation read: no data was ever deployed under an
// earlier magic, and a dump carrying one is ErrBadSnapshot like any
// other unknown header.

const snapMagic = "ZSNAP3"

// ErrBadSnapshot reports a corrupted or truncated snapshot file.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// writeSnapshot atomically replaces the snapshot at path with what
// encode writes: a temp file, fsynced, renamed into place, and the
// rename made durable.
func writeSnapshot(path string, encode func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := encode(f); err != nil {
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

// A snapshot is encoded from a view of the store: its lists as one
// point of the log saw them. Durable takes the view under d.mu — freeze
// stamps a generation, which costs a pass over the list map and copies
// no element — and encodes it with no lock of the store held while
// writers go on. A writer about to change a list of the view that the
// encoder has not reached saves an image of it first (saveImage); the
// encoder reads each list either from its image or, untouched since the
// view, live under the list's read lock. Lists created after the view
// are not in it. A lazily loaded list is read from the snapshot region
// the view found it with, which nothing rewrites.

// snapView is the store as one snapshot encodes it. gen is the
// generation freeze stamped, 0 for a view no writer saves images for
// (Memory's export, which is point-in-time per list only, and an
// import's decoded state, which no writer reaches).
type snapView struct {
	gen   uint64
	lists []snapList
}

// snapList is one list of a view: live (ml), or lazily loaded and read
// from its snapshot region (raw, count, version).
type snapList struct {
	id      zerber.ListID
	ml      *mergedList
	raw     []byte
	count   int
	version uint64
}

// listImage is a list as a snapshot of generation gen encodes it, saved
// by the writer that changed the list first. The runs are copies — a
// merge or a delete rewrites a run in place — and the payloads are the
// list's two buffers as they were, which no later write rewrites below
// the lengths the records address.
type listImage struct {
	gen     uint64
	version uint64
	payloads
	runs []snapRun
}

// snapRun is one non-empty group run of a list as the encoder merges
// it.
type snapRun struct {
	group  int
	sorted []rec
}

// viewLocked lists the store's lists for a snapshot of generation gen.
// Callers hold m.mu.
func (m *Memory) viewLocked(gen uint64) *snapView {
	v := &snapView{gen: gen, lists: make([]snapList, 0, len(m.lists)+len(m.lazy))}
	for id, ml := range m.lists {
		v.lists = append(v.lists, snapList{id: id, ml: ml})
	}
	for id, lz := range m.lazy {
		v.lists = append(v.lists, snapList{id: id, raw: lz.raw, count: lz.count, version: lz.version})
	}
	return v
}

// freeze stamps a new snapshot generation and returns its view. The
// caller keeps writers out while it runs (Durable holds d.mu), so the
// view is one point of the log, and calls thaw once the encode is over.
func (m *Memory) freeze() *snapView {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.frozen.Store(m.gen)
	return m.viewLocked(m.gen)
}

// thaw ends the generation v was frozen at and drops the images the
// encoder did not take (it failed before reaching their lists). The
// caller keeps writers out, as for freeze, so none saves an image after.
func (m *Memory) thaw(v *snapView) {
	m.frozen.Store(0)
	for _, l := range v.lists {
		if l.ml != nil {
			l.ml.image.Store(nil)
		}
	}
}

// saveImage keeps the list as the snapshot of generation gen encodes
// it, unless it is settled for gen already: what a writer does before
// it changes the list. Callers hold the write lock.
func (ml *mergedList) saveImage(gen uint64) {
	if gen == 0 || ml.snapGen.Load() >= gen {
		return
	}
	runs := ml.runsLocked(nil)
	for i := range runs {
		runs[i].sorted = slices.Clone(runs[i].sorted)
	}
	ml.image.Store(&listImage{gen: gen, version: ml.version, payloads: ml.payloads, runs: runs})
	ml.snapGen.Store(gen)
}

// runsLocked appends the list's non-empty group runs to runs. Callers
// hold the list lock.
func (ml *mergedList) runsLocked(runs []snapRun) []snapRun {
	for gid, g := range ml.groups {
		if len(g.sorted) > 0 {
			runs = append(runs, snapRun{group: gid, sorted: g.sorted})
		}
	}
	return runs
}

// encodeSnapshot writes m as a dump covering seq, each list as it is
// when the encoder reaches it (Memory.ExportSnapshot, and an import's
// decoded state).
func encodeSnapshot(f io.Writer, seq uint64, m *Memory) error {
	m.mu.RLock()
	v := m.viewLocked(0)
	m.mu.RUnlock()
	return encodeView(f, seq, v, nil)
}

// encodeView writes the view as a dump covering seq, its lists in
// ascending ID order. pause, when set, is called before each list with
// the number of lists written (the seam of Durable.snapPause).
func encodeView(f io.Writer, seq uint64, v *snapView, pause func(lists int)) error {
	slices.SortFunc(v.lists, func(a, b snapList) int { return cmp.Compare(a.id, b.id) })
	// The lists are appended to buf, which goes to f, through the
	// checksum, each time it passes flushAt: the trailing CRC covers
	// exactly what a reader will verify.
	const flushAt = 256 << 10
	var sum uint32
	buf := make([]byte, 0, flushAt+flushAt/4)
	flush := func() error {
		sum = crc32.Update(sum, crc32.IEEETable, buf)
		_, err := f.Write(buf)
		buf = buf[:0]
		return err
	}
	if _, err := io.WriteString(f, snapMagic); err != nil {
		return err
	}
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, seq), uint64(len(v.lists)))
	var enc listEncoder
	for i, l := range v.lists {
		if pause != nil {
			pause(i)
		}
		buf = enc.appendList(buf, l, v.gen)
		if len(buf) >= flushAt {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	_, err := f.Write(binary.BigEndian.AppendUint32(buf, sum))
	return err
}

// listEncoder appends lists to a snapshot body, its scratch reused from
// one list to the next.
type listEncoder struct {
	runs  []snapRun
	heads []runHead
}

// runHead is a run's next record in the encoder's merge.
type runHead struct {
	r   rec
	run int
	at  int
}

// appendList appends one list's entry of the snapshot body of
// generation gen: from the list's image if a writer saved one for gen,
// else from the live list under its read lock, which then settles it
// for gen — a writer that comes after saves no image.
func (e *listEncoder) appendList(buf []byte, l snapList, gen uint64) []byte {
	ml := l.ml
	if ml == nil {
		return e.appendRegion(buf, l)
	}
	ml.mu.RLock()
	if img := ml.image.Load(); img != nil && img.gen == gen {
		ml.mu.RUnlock()
		buf = e.appendRuns(buf, l.id, img.version, &img.payloads, img.runs)
		ml.image.CompareAndSwap(img, nil)
		return buf
	}
	runs := ml.runsLocked(e.runs[:0])
	buf = e.appendRuns(buf, l.id, ml.version, &ml.payloads, runs)
	if gen != 0 {
		ml.snapGen.Store(gen)
	}
	ml.mu.RUnlock()
	clear(runs) // hold on to no run past the lock
	e.runs = runs[:0]
	return buf
}

// appendRuns appends a list's entry from its group runs, merged into
// rank order straight into buf — the total order the read path merges
// by, so the entry is what a query of the whole list returns — and leaf
// flag 0. The merge keeps one head per run not yet drained and takes the
// least each time.
func (e *listEncoder) appendRuns(buf []byte, id zerber.ListID, version uint64, p *payloads, runs []snapRun) []byte {
	heads := e.heads[:0]
	total := 0
	for i, r := range runs {
		total += len(r.sorted)
		heads = append(heads, runHead{r: r.sorted[0], run: i})
	}
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendUvarint(buf, uint64(total))
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if p.less(heads[i].r, heads[best].r) {
				best = i
			}
		}
		h := &heads[best]
		run := &runs[h.run]
		buf = AppendElement(buf, Element{Sealed: p.payload(h.r), TRS: h.r.trs, Group: run.group})
		if h.at++; h.at < len(run.sorted) {
			h.r = run.sorted[h.at]
		} else {
			heads[best] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
	}
	e.heads = heads
	return append(buf, 0)
}

// appendRegion appends a lazily loaded list's entry from the snapshot
// region it was loaded from, each element re-encoded as appendRuns
// writes it, and leaf flag 0.
func (e *listEncoder) appendRegion(buf []byte, l snapList) []byte {
	buf = binary.AppendUvarint(buf, uint64(l.id))
	buf = binary.AppendUvarint(buf, l.version)
	buf = binary.AppendUvarint(buf, uint64(l.count))
	eachElement(l.raw, l.count, func(group int, trs float64, off, size int) {
		buf = AppendElement(buf, Element{Sealed: l.raw[off : off+size], TRS: trs, Group: group})
	})
	return append(buf, 0)
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
		switch flag := r.Byte(); flag {
		case 0:
		case 1:
			r.Bytes(n * proof.HashSize) // a legacy leaf block, skipped
		default:
			r.Fail("list %d: leaf flag %d", id, flag)
		}
		if r.Err() == nil {
			m.loadLazy(id, elems, n, version)
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
