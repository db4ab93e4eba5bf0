package store

// Snapshot transfer and WAL-tail export: the storage hooks beneath
// live shard migration and replica resync (internal/cluster,
// internal/replica). A migration ships ExportSnapshot's atomic
// rank-ordered snapshot dump (snapshot.go), the destination adopts it via
// ImportSnapshot, and TailSince hands over the mutations logged after
// the dump's sequence so the destination can catch up before the
// route flips. Everything shipped is content the source already held
// for an untrusted server — sealed payloads, TRS values, group IDs —
// so the transfer widens no leakage surface.

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

	"zerberr/internal/zerber"
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

// TailOp operation kinds.
const (
	TailOpInsert = "insert"
	TailOpRemove = "remove"
)

// TailOp is one logged mutation in wire-friendly form — what
// Backend.TailSince exports and the admin snapshot-transfer endpoints
// carry between shards.
type TailOp struct {
	Op     string        `json:"op"` // TailOpInsert | TailOpRemove
	List   zerber.ListID `json:"list"`
	Group  int           `json:"group,omitempty"` // insert only
	TRS    float64       `json:"trs,omitempty"`   // insert only
	Sealed []byte        `json:"sealed"`
}

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
func (m *Memory) TailSince(uint64) ([]TailOp, error) {
	return nil, ErrNoTail
}

// ExportSnapshot implements Backend for Durable: the dump covers
// exactly the operations logged up to the returned sequence. Writers
// wait out the encode (it holds d.mu); readers proceed.
func (d *Durable) ExportSnapshot() ([]byte, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, 0, ErrClosed
	}
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, d.seq, d.mem); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), d.seq, nil
}

// ImportSnapshot implements Backend for Durable: the imported state is
// persisted as this directory's snapshot — re-sequenced to the local
// WAL position so recovery semantics are unchanged — before memory
// adopts it and the WAL restarts empty. A crash before the snapshot
// rename leaves the old state intact; after it, recovery boots the
// imported state.
func (d *Durable) ImportSnapshot(data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	_, mem, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	// A writer still waiting for its fsync must not sync the log while
	// it is truncated; it finds its sequence covered instead.
	d.lockSync()
	defer d.syncMu.Unlock()
	// Keep this directory's epoch for lists minted after the import;
	// imported lists carry the source's persisted versions.
	mem.verBase = d.mem.verBase
	if err := writeSnapshot(filepath.Join(d.dir, snapFileName), d.seq, mem); err != nil {
		return fmt.Errorf("store: persisting imported snapshot: %w", err)
	}
	if err := d.wal.reset(); err != nil {
		return fmt.Errorf("store: truncating WAL after import: %w", err)
	}
	d.mem.adopt(mem)
	// The snapshot captured the imported state and the log restarted
	// empty: any earlier ambiguous write is moot, same as snapshotLocked.
	d.clearPoison()
	d.synced = d.seq
	d.opsSinceSnap = 0
	d.walBase = d.seq
	return nil
}

// TailSince implements Backend for Durable: the decoded WAL records
// with sequence > after, in log order. Every append flushes its record
// to the file before d.mu is released, so the scan under d.mu observes
// every logged operation.
func (d *Durable) TailSince(after uint64) ([]TailOp, error) {
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
	var ops []TailOp
	err := readWALTail(filepath.Join(d.dir, walFileName), after, func(rec walRecord) {
		op := TailOp{List: rec.list, Sealed: rec.sealed}
		switch rec.op {
		case opInsert:
			op.Op, op.Group, op.TRS = TailOpInsert, rec.group, rec.trs
		case opRemove:
			op.Op = TailOpRemove
		}
		ops = append(ops, op)
	})
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// readWALTail scans the log read-only and calls apply for every record
// with seq > afterSeq. Unlike recovery's replayWAL it tolerates
// nothing: the log belongs to a live store whose appends are fully
// flushed, so any framing damage is a real error, and the file is
// never modified.
func readWALTail(path string, afterSeq uint64, apply func(walRecord)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadWAL, err)
	}
	if string(magic) != string(walMagic) {
		return fmt.Errorf("%w: magic %q", ErrBadWAL, magic)
	}
	for {
		payloadLen, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%w: torn length prefix on a live log: %v", ErrBadWAL, err)
		}
		if payloadLen > maxWALRecord {
			return fmt.Errorf("%w: record of %d bytes", ErrBadWAL, payloadLen)
		}
		frame := make([]byte, payloadLen+4)
		if _, err := io.ReadFull(br, frame); err != nil {
			return fmt.Errorf("%w: torn record on a live log: %v", ErrBadWAL, err)
		}
		payload, sum := frame[:payloadLen], binary.BigEndian.Uint32(frame[payloadLen:])
		if crc32.ChecksumIEEE(payload) != sum {
			return fmt.Errorf("%w: checksum mismatch on a live log", ErrBadWAL)
		}
		recs, err := decodeWALRecords(payload)
		if err != nil {
			return fmt.Errorf("%w: undecodable record: %v", ErrBadWAL, err)
		}
		for _, rec := range recs {
			if rec.seq > afterSeq {
				apply(rec)
			}
		}
	}
}
