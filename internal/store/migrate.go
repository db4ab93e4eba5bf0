package store

// Snapshot transfer and WAL-tail export: the storage hooks beneath
// live shard migration and replica resync (internal/cluster,
// internal/replica). A migration ships ExportSnapshot's atomic
// rank-ordered snapshot dump (snapshot.go), the destination adopts it via
// ImportSnapshot, and TailSince hands over the log records written
// after the dump's sequence, which ApplyTail applies so the destination
// can catch up before the route flips. Everything shipped is content
// the source already held for an untrusted server — sealed payloads,
// TRS values, group IDs — so the transfer widens no leakage surface.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// Tail-export errors.
var (
	// ErrNoTail reports a TailSince against an engine that keeps no
	// operation log (Memory): callers must quiesce writes around a full
	// snapshot instead of replaying a tail.
	ErrNoTail = errors.New("store: backend keeps no operation log")
	// ErrTailTruncated reports that compaction already folded part of
	// the requested tail into a snapshot; the caller must re-export and
	// retry from the newer sequence.
	ErrTailTruncated = errors.New("store: requested tail already compacted")
)

// ExportSnapshot implements Backend for Memory. The engine keeps no
// log, so the covered sequence is 0 and the export is only
// point-in-time per list (per-list version and elements are read
// atomically); callers that need a globally consistent cut must pause
// writes around the call.
func (m *Memory) ExportSnapshot() ([]byte, uint64, error) {
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, 0, m); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), 0, nil
}

// ImportSnapshot implements Backend for Memory.
func (m *Memory) ImportSnapshot(data []byte) error {
	_, src, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	m.adopt(src)
	return nil
}

// TailSince implements Backend for Memory: there is no log.
func (m *Memory) TailSince(uint64) ([]byte, error) {
	return nil, ErrNoTail
}

// ExportSnapshot implements Backend for Durable: a snapshot (Snapshot)
// whose dump is also returned, covering exactly the operations logged
// up to the returned sequence. Writers wait only for its freeze and log
// switch, not for the encode; readers proceed. The dump is this
// directory's snapshot as well, and the log restarts after its
// sequence, so TailSince(seq) serves what came after it until the next
// snapshot.
func (d *Durable) ExportSnapshot() ([]byte, uint64, error) {
	d.mu.Lock()
	job, err := d.startSnapshotLocked()
	d.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := d.runSnapshot(job, &buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), job.seq, nil
}

// ImportSnapshot implements Backend for Durable: the imported state is
// persisted as this directory's snapshot — re-sequenced to the local
// WAL position so recovery semantics are unchanged — before memory
// adopts it, and the log restarts after it, through the same segment
// switch a snapshot makes. Writers wait out the whole import. A crash
// before the snapshot rename leaves the old state intact; after it,
// recovery boots the imported state.
func (d *Durable) ImportSnapshot(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.snapping {
		d.snapDone.Wait()
	}
	if d.closed.Load() {
		return ErrClosed
	}
	_, mem, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	// Keep this directory's epoch for lists minted after the import;
	// imported lists carry the source's persisted versions.
	mem.verBase = d.mem.verBase
	old, err := d.switchSegmentLocked()
	if err != nil {
		return err
	}
	// A failure here poisons the log, which the import below clears
	// when it succeeds: the imported snapshot does not depend on the
	// old segment.
	_ = d.settleRetiring(old, d.seq)
	err = writeSnapshot(filepath.Join(d.dir, snapFileName), func(w io.Writer) error { return encodeSnapshot(w, d.seq, mem) })
	if err != nil {
		return fmt.Errorf("store: persisting imported snapshot: %w", err)
	}
	d.mem.adopt(mem)
	d.walBase = d.seq
	if d.retired, err = removeSegments(d.dir, d.retired); err != nil {
		return err
	}
	// The snapshot captured the imported state and the segments it
	// covers are gone: any earlier ambiguous write is moot, as after a
	// snapshot.
	d.clearPoison()
	d.syncMu.Lock()
	d.synced = max(d.synced, d.seq)
	d.syncMu.Unlock()
	d.opsSinceSnap = 0
	return nil
}

// TailSince implements Backend for Durable: the framed log records
// holding the operations with sequence > after, in log order — the
// retired segments' and then the live one's — read with the frame
// reader recovery uses. Each is re-framed from its decoded form, which
// gives the log's own bytes back, and a batch straddling after as its
// later operations. Every append flushes its record to the file before
// d.mu is released, so the scan under d.mu observes every logged
// operation, and any damage it meets is ErrBadWAL.
func (d *Durable) TailSince(after uint64) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if after >= d.seq {
		return nil, nil
	}
	if after < d.walBase {
		return nil, fmt.Errorf("%w: log restarts at seq %d, tail requested after %d", ErrTailTruncated, d.walBase, after)
	}
	var tail []byte
	for _, path := range append(slices.Clip(d.retired), filepath.Join(d.dir, walFileName)) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := logFrames(data)
		if err != nil {
			return nil, err
		}
		err = f.each(func(r record) {
			if r = r.since(after); r.ops() > 0 {
				tail = append(tail, frameRecord(encodeRecord(r))...)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return tail, nil
}

// ApplyTail applies a tail — TailSince's bytes, from another store — to
// b through its batch mutations, so versions advance as they did at the
// source, and reports how many operations it applied. It decodes the
// whole tail before b sees any of it, so bytes that do not decode
// (ErrBadWAL) change nothing. Each run of consecutive insert records is
// one InsertBatch and each run of remove records one RemoveBatch: a
// durable b logs a tail in one record per run. b keeps nothing of tail:
// its inserts copy the payloads they keep.
//
// The apply is strict. A remove b cannot resolve fails its run with a
// *BatchOpError, after the runs before it applied: b has diverged from
// the store the tail came from, and only a fresh copy reconciles them.
func ApplyTail(b Backend, tail []byte) (ops int, err error) {
	recs, err := readTail(tail)
	if err != nil {
		return 0, err
	}
	var ins []BatchInsert
	var rem []BatchRemove
	flush := func() error {
		if err := b.InsertBatch(ins); err != nil {
			return err
		}
		if err := b.RemoveBatch(rem, nil); err != nil {
			return err
		}
		ops += len(ins) + len(rem)
		ins, rem = nil, nil
		return nil
	}
	for _, r := range recs {
		if r.remove && len(ins) > 0 || !r.remove && len(rem) > 0 {
			if err := flush(); err != nil {
				return ops, err
			}
		}
		ins = append(ins, r.inserts...)
		rem = append(rem, r.removes...)
	}
	return ops, flush()
}

// readTail decodes every record of a tail, strictly (frames.each).
func readTail(tail []byte) ([]record, error) {
	var recs []record
	f := newFrames(tail)
	err := f.each(func(r record) { recs = append(recs, r) })
	return recs, err
}
