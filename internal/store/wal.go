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
)

// Write-ahead log format (integers are unsigned varints unless noted,
// floats 64-bit IEEE big-endian; read, like every binary format here,
// through internal/binfmt):
//
//	file:    magic "ZWAL1" | record*
//	record:  payloadLen | payload | crc32-IEEE(payload) (4B big-endian)
//	payload: seq | kind (1B) |
//	         kind=insertBatch: insert op list
//	         kind=removeBatch: remove op list
//	         kind=insert: list | element
//	         kind=remove: list | sealedLen | sealed
//
// The op lists are the ones the /v2/insert and /v2/remove frames carry
// (element.go), so a logged mutation has one binary form from the wire
// to the disk and, as a migration's tail (TailSince, ApplyTail),
// between shards.
//
// The sequence number ties the log to snapshots: a snapshot records
// the last sequence it contains, and recovery skips WAL records at or
// below it, so a crash between snapshot rename and log truncation
// cannot double-apply operations. The trailing CRC frames each record
// so recovery can detect a torn final write and truncate it away.
//
// A batch record is N inserts, or N removes in the order the batch
// named them, under one frame: seq is the first op's sequence and the
// record consumes seq..seq+count-1, so a batch costs one length prefix,
// one CRC and (under FsyncEach) at most one fsync instead of N.
// Torn-tail recovery is per frame: a torn batch drops whole, never
// half-applied. Nothing writes the single insert and remove records
// any more — a single operation is logged as a batch of one — but logs
// written before that hold them, so they still decode, as batches of
// one.

const (
	walMagic = "ZWAL1"

	opInsert      byte = 1
	opRemove      byte = 2
	opInsertBatch byte = 3
	opRemoveBatch byte = 4

	// maxWALRecord bounds a single record's payload: a longer length
	// prefix is damage (ErrBadWAL), not a torn write to truncate away.
	maxWALRecord = 1 << 28

	// maxBatchRecordBytes is where InsertBatch and RemoveBatch split a
	// batch into multiple records: comfortably under maxWALRecord so a
	// batch can never encode into an unreplayable frame, large enough
	// that any realistic API batch (MaxBatchOps elements) stays one
	// record.
	maxBatchRecordBytes = 1 << 24
)

// ErrBadWAL reports a corrupted write-ahead log (damage before the
// final record, which torn-write truncation cannot explain away), or a
// tail (TailSince's bytes) that does not decode.
var ErrBadWAL = errors.New("store: bad write-ahead log")

// errTornFrame reports a frame cut short or failing its checksum: what
// a crash mid-append leaves at the end of a log, and damage anywhere
// else in a log or a tail.
var errTornFrame = fmt.Errorf("%w: torn record", ErrBadWAL)

// record is one logged record in decoded form: a batch of inserts or,
// when remove is set, of removes, whose ops take the sequences seq,
// seq+1, …
type record struct {
	seq     uint64
	remove  bool
	inserts []BatchInsert
	removes []BatchRemove
}

func (r record) ops() int { return len(r.inserts) + len(r.removes) }

// since drops the ops of r with a sequence at or below after.
func (r record) since(after uint64) record {
	if r.seq > after {
		return r
	}
	skip := after - r.seq + 1
	r.inserts = r.inserts[min(skip, uint64(len(r.inserts))):]
	r.removes = r.removes[min(skip, uint64(len(r.removes))):]
	r.seq = after + 1
	return r
}

// encodeRecord encodes r as a batch record's payload. Callers bound the
// batch so the payload stays under maxWALRecord.
func encodeRecord(r record) []byte {
	size := 2*binary.MaxVarintLen64 + 1
	for i := range r.inserts {
		size += 3*binary.MaxVarintLen64 + 8 + len(r.inserts[i].Element.Sealed)
	}
	for i := range r.removes {
		size += 2*binary.MaxVarintLen64 + len(r.removes[i].Sealed)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), r.seq)
	if r.remove {
		return AppendRemoves(append(buf, opRemoveBatch), r.removes)
	}
	return AppendInserts(append(buf, opInsertBatch), r.inserts)
}

// errBadRecord reports a record payload that does not decode.
var errBadRecord = errors.New("undecodable record")

// decodeRecord decodes one record's payload, all or nothing: a payload
// that fails mid-batch yields none of it, so replay's torn-tail
// tolerance stays frame-granular. Payloads alias the given bytes.
func decodeRecord(payload []byte) (record, error) {
	r := binfmt.NewReader(payload, errBadRecord)
	rec := record{seq: r.Uvarint()}
	switch kind := r.Byte(); kind {
	case opInsertBatch:
		rec.inserts = ReadInserts(&r)
	case opRemoveBatch:
		rec.remove = true
		rec.removes = ReadRemoves(&r)
	case opInsert:
		list := checkListID(&r, int64(r.Uvarint()))
		rec.inserts = []BatchInsert{{List: list, Element: ReadElement(&r)}}
	case opRemove:
		list := checkListID(&r, int64(r.Uvarint()))
		rec.remove = true
		rec.removes = []BatchRemove{{List: list, Sealed: r.Prefixed()}}
	default:
		r.Fail("unknown op %d", kind)
	}
	if err := r.End(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// frameRecord wraps a payload in the on-disk framing — length prefix,
// payload, trailing CRC — returning bytes ready for one contiguous
// write.
func frameRecord(payload []byte) []byte {
	dst := make([]byte, 0, binary.MaxVarintLen64+len(payload)+4)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// frames reads framed records one at a time out of a log's bytes after
// its magic (logFrames) or out of a tail — the one reader of recovery
// (replayWAL), tail export (Durable.TailSince) and tail apply
// (ApplyTail).
type frames struct{ r binfmt.Reader }

func newFrames(b []byte) frames { return frames{binfmt.NewReader(b, errTornFrame)} }

// next returns the next frame's payload, which aliases the input. It
// returns io.EOF at a clean end, errTornFrame for a frame cut short or
// failing its checksum, and ErrBadWAL for a length no record may have.
func (f *frames) next() ([]byte, error) {
	if f.r.Err() == nil && f.r.Len() == 0 {
		return nil, io.EOF
	}
	n := f.r.Uvarint()
	if n > maxWALRecord {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrBadWAL, n)
	}
	payload := f.r.Bytes(int(n))
	sum := f.r.Uint32()
	if err := f.r.Err(); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errTornFrame
	}
	return payload, nil
}

// each decodes every record left and calls fn with each, in order. It
// tolerates nothing — a torn frame or an undecodable record anywhere is
// ErrBadWAL — as the reader of a live log, whose appends are whole, or
// of a peer's tail must.
func (f *frames) each(fn func(record)) error {
	for {
		payload, err := f.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: record ending at offset %d: %v", ErrBadWAL, f.r.Offset(), err)
		}
		fn(r)
	}
}

// wal is an append-only log open for writing.
type wal struct {
	f  *os.File
	bw *bufio.Writer
	// syncFile replaces f.Sync when set: the seam tests use to hold,
	// fail or count the store's fsyncs.
	syncFile func() error
}

// createWAL truncates (or creates) the log at path, writes the header,
// and makes the directory entry durable — without the dir sync an OS
// crash on first boot could drop the file even after per-record
// fsyncs.
func createWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, bw: bufio.NewWriter(f)}
	if _, err := w.bw.WriteString(walMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// openWALForAppend opens an existing, already-recovered log for
// further appends.
func openWALForAppend(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, bw: bufio.NewWriter(f)}, nil
}

// write pushes one pre-framed record to the OS, leaving nothing in the
// buffered writer. The data is crash-consistent with respect to process
// death after write returns; call sync for durability across OS crashes
// too.
func (w *wal) write(frame []byte) error {
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	return w.bw.Flush()
}

// reset truncates the log back to a bare header, in place on the live
// handle (the file is opened O_APPEND, so the next write lands at the
// new end). Callers must have synced first; buffered bytes are
// discarded.
func (w *wal) reset() error {
	w.bw.Reset(w.f)
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.bw.WriteString(walMagic); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.fsync()
}

// fsync puts what write has pushed to the OS on disk. Unlike every
// other method it touches no buffered state, so it is safe beside a
// concurrent write.
func (w *wal) fsync() error {
	if w.syncFile != nil {
		return w.syncFile()
	}
	return w.f.Sync()
}

func (w *wal) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.fsync()
}

func (w *wal) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL reads the log at path and calls apply once per intact
// record, in order, with its decoded operations of seq > afterSeq — a
// batch record's in one call, as its live write applied them. A torn
// final record (truncated frame or CRC mismatch at the tail) is
// tolerated: the file is truncated back to the last intact record and
// replay succeeds with what came before. Damage that is provably not a
// torn tail — intact framing around an undecodable payload followed by
// more data — is ErrBadWAL. It returns the highest sequence seen
// (afterSeq if none). The records alias the log's bytes, read whole:
// apply copies what it keeps.
//
// A missing file, or one too short to hold the magic (torn at offset
// zero), is not an error: a fresh log is created.
func replayWAL(path string, afterSeq uint64, apply func(record)) (maxSeq uint64, _ error) {
	maxSeq = afterSeq
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) || err == nil && len(data) < len(walMagic) {
		w, err := createWAL(path)
		if err != nil {
			return maxSeq, err
		}
		return maxSeq, w.close()
	}
	if err != nil {
		return maxSeq, err
	}
	f, err := logFrames(data)
	if err != nil {
		return maxSeq, err
	}
	goodEnd := 0 // bytes of the intact records after the magic
	for {
		payload, err := f.next()
		if err == io.EOF {
			return maxSeq, nil // clean end of log
		}
		if errors.Is(err, errTornFrame) {
			break
		}
		if err != nil {
			return maxSeq, err
		}
		r, err := decodeRecord(payload)
		if err != nil {
			// The frame and CRC are intact, so this is not a torn
			// write: only tolerate it at the very end of the file.
			if f.r.Len() == 0 {
				break
			}
			return maxSeq, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrBadWAL, len(walMagic)+goodEnd, err)
		}
		goodEnd = f.r.Offset()
		if n := r.ops(); n > 0 {
			maxSeq = max(maxSeq, r.seq+uint64(n)-1)
		}
		if r = r.since(afterSeq); r.ops() > 0 {
			apply(r)
		}
	}
	// Torn tail: drop everything past the last intact record.
	return maxSeq, os.Truncate(path, int64(len(walMagic)+goodEnd))
}

// logFrames checks the magic at the head of a log's bytes and returns a
// reader of the records after it. A wrong magic is ErrBadWAL, never a
// torn frame: replay must not truncate a file that is not a log.
func logFrames(data []byte) (frames, error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return frames{}, fmt.Errorf("%w: magic %q", ErrBadWAL, data[:min(len(data), len(walMagic))])
	}
	return newFrames(data[len(walMagic):]), nil
}
