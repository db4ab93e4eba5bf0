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

	"zerberr/internal/zerber"
)

// Write-ahead log format (integers are unsigned varints unless noted,
// floats 64-bit IEEE big-endian — the serialization idiom of
// internal/index and internal/zerber):
//
//	file:    magic "ZWAL1" | record*
//	record:  payloadLen | payload | crc32-IEEE(payload) (4B big-endian)
//	payload: seq | op (1B) |
//	         op=insert: list | element
//	         op=remove: list | sealedLen | sealed
//	         op=insertBatch: count | count × (
//	             listDelta (signed varint, vs the previous entry's
//	             list; the first entry's delta is vs list 0) |
//	             element )
//	         op=removeBatch: count | count × (
//	             listDelta (as above) | sealedLen | sealed )
//	element: the shared element record (element.go)
//
// The sequence number ties the log to snapshots: a snapshot records
// the last sequence it contains, and recovery skips WAL records at or
// below it, so a crash between snapshot rename and log truncation
// cannot double-apply operations. The trailing CRC frames each record
// so recovery can detect a torn final write and truncate it away.
//
// An insertBatch record is N inserts under one frame: seq is the
// first element's sequence and the record consumes seq..seq+count-1,
// so a batch costs one length prefix, one CRC and (under FsyncEach)
// at most one fsync instead of N. List IDs are delta-encoded against
// the previous entry — the ZIDX1 idiom — because batches are usually
// sorted or single-list. Torn-tail recovery is per frame: a torn
// batch drops whole, never half-applied.
//
// A removeBatch record is the same for N removes, in the order the
// batch named them. Decoding expands either batch kind into per-element
// records, so replay, tail export and migration never see a batch.
// Nothing writes the single insert and remove records any more — a
// single operation is logged as a batch of one — but logs written
// before that hold them, so they still decode and replay.

var walMagic = []byte("ZWAL1")

const (
	opInsert      byte = 1
	opRemove      byte = 2
	opInsertBatch byte = 3
	opRemoveBatch byte = 4

	// maxWALRecord bounds a single record's payload so a corrupted
	// length prefix cannot trigger a huge allocation during recovery.
	maxWALRecord = 1 << 28

	// maxBatchRecordBytes is where InsertBatch and RemoveBatch split a
	// batch into multiple records: comfortably under maxWALRecord so a
	// batch can never encode into an unreplayable frame, large enough
	// that any realistic API batch (MaxBatchOps elements) stays one
	// record.
	maxBatchRecordBytes = 1 << 24
)

// ErrBadWAL reports a corrupted write-ahead log (damage before the
// final record, which torn-write truncation cannot explain away).
var ErrBadWAL = errors.New("store: bad write-ahead log")

// walRecord is one logged operation in decoded form.
type walRecord struct {
	seq    uint64
	op     byte
	list   zerber.ListID
	group  int     // insert only
	trs    float64 // insert only
	sealed []byte
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

// encodeWALBatchPayload encodes N inserts as one opInsertBatch
// payload. firstSeq is the first element's sequence; the record
// consumes firstSeq..firstSeq+len(ops)-1. Callers bound the batch so
// the payload stays under maxWALRecord.
func encodeWALBatchPayload(firstSeq uint64, ops []BatchInsert) []byte {
	size := 2*binary.MaxVarintLen64 + 1
	for i := range ops {
		size += 3*binary.MaxVarintLen64 + 8 + len(ops[i].Element.Sealed)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, firstSeq)
	buf = append(buf, opInsertBatch)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := int64(0)
	for i := range ops {
		list := int64(ops[i].List)
		buf = binary.AppendVarint(buf, list-prev)
		prev = list
		buf = AppendElement(buf, ops[i].Element)
	}
	return buf
}

// encodeWALRemoveBatchPayload encodes N removes as one opRemoveBatch
// payload, sequenced and bounded like encodeWALBatchPayload.
func encodeWALRemoveBatchPayload(firstSeq uint64, ops []BatchRemove) []byte {
	size := 2*binary.MaxVarintLen64 + 1
	for i := range ops {
		size += 2*binary.MaxVarintLen64 + len(ops[i].Sealed)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, firstSeq)
	buf = append(buf, opRemoveBatch)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	prev := int64(0)
	for i := range ops {
		list := int64(ops[i].List)
		buf = binary.AppendVarint(buf, list-prev)
		prev = list
		buf = binary.AppendUvarint(buf, uint64(len(ops[i].Sealed)))
		buf = append(buf, ops[i].Sealed...)
	}
	return buf
}

// decodeWALRecords decodes one framed payload into its operations: a
// single walRecord for insert/remove, count opInsert or opRemove
// records (with consecutive sequences) for a batch of either. Decoding
// is all-or-nothing — a payload that fails mid-batch applies none of
// it, so replay's torn-tail tolerance stays frame-granular. Sealed
// bytes are copied out of the payload buffer.
func decodeWALRecords(payload []byte) ([]walRecord, error) {
	rd := newByteCursor(payload)
	seq, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, err
	}
	op, err := rd.ReadByte()
	if err != nil {
		return nil, err
	}
	switch op {
	case opInsert, opRemove:
		list, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		rec := walRecord{seq: seq, op: op, list: zerber.ListID(list)}
		if err := rd.walBody(&rec); err != nil {
			return nil, err
		}
		if rd.remaining() != 0 {
			return nil, fmt.Errorf("record leaves %d trailing bytes", rd.remaining())
		}
		return []walRecord{rec}, nil
	case opInsertBatch, opRemoveBatch:
		count, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, err
		}
		// The smallest entry is a delta, a group, a TRS and a length
		// (11 bytes) for an insert, a delta and a length for a remove.
		// The body, not the claimed count, bounds the allocation: a
		// count the payload it arrived in cannot hold is rejected first.
		each, minEntry := opInsert, 11
		if op == opRemoveBatch {
			each, minEntry = opRemove, 2
		}
		if count > uint64(rd.remaining()/minEntry) {
			return nil, fmt.Errorf("batch claims %d entries with %d bytes left", count, rd.remaining())
		}
		recs := make([]walRecord, 0, count)
		prev := int64(0)
		for i := uint64(0); i < count; i++ {
			delta, err := binary.ReadVarint(rd)
			if err != nil {
				return nil, err
			}
			prev += delta
			if prev < 0 {
				return nil, fmt.Errorf("batch entry %d: negative list id %d", i, prev)
			}
			rec := walRecord{seq: seq + i, op: each, list: zerber.ListID(prev)}
			if err := rd.walBody(&rec); err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		if rd.remaining() != 0 {
			return nil, fmt.Errorf("batch leaves %d trailing bytes", rd.remaining())
		}
		return recs, nil
	default:
		return nil, fmt.Errorf("unknown op %d", op)
	}
}

// walBody reads what follows the list ID of one logged operation — an
// element for rec.op opInsert, a length-prefixed payload for opRemove —
// into rec, copying the sealed bytes out of the buffer.
func (c *byteCursor) walBody(rec *walRecord) error {
	var sealed []byte
	if rec.op == opInsert {
		el, err := c.element()
		if err != nil {
			return err
		}
		rec.group, rec.trs, sealed = el.Group, el.TRS, el.Sealed
	} else {
		n, err := binary.ReadUvarint(c)
		if err != nil {
			return err
		}
		if sealed, err = c.take(int(n)); err != nil {
			return err
		}
	}
	rec.sealed = append([]byte(nil), sealed...)
	return nil
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
	if _, err := w.bw.Write(walMagic); err != nil {
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
	if _, err := w.bw.Write(walMagic); err != nil {
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
// (afterSeq if none).
//
// A missing file is not an error: a fresh log is created.
func replayWAL(path string, afterSeq uint64, apply func([]walRecord)) (maxSeq uint64, _ error) {
	maxSeq = afterSeq
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		w, err := createWAL(path)
		if err != nil {
			return maxSeq, err
		}
		return maxSeq, w.close()
	}
	if err != nil {
		return maxSeq, err
	}
	defer f.Close()

	cr := &countingReader{r: bufio.NewReader(f)}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		// Shorter than the header: treat as torn at offset zero and
		// rebuild the header.
		return maxSeq, rewriteWALHeader(path)
	}
	if string(magic) != string(walMagic) {
		return maxSeq, fmt.Errorf("%w: magic %q", ErrBadWAL, magic)
	}

	goodEnd := cr.n // offset just past the last intact record
	for {
		payloadLen, err := binary.ReadUvarint(cr)
		if errors.Is(err, io.EOF) {
			return maxSeq, nil // clean end of log
		}
		if err != nil {
			break // torn length prefix
		}
		if payloadLen > maxWALRecord {
			return maxSeq, fmt.Errorf("%w: record of %d bytes", ErrBadWAL, payloadLen)
		}
		frame := make([]byte, payloadLen+4)
		if _, err := io.ReadFull(cr, frame); err != nil {
			break // torn payload or CRC
		}
		payload, sum := frame[:payloadLen], binary.BigEndian.Uint32(frame[payloadLen:])
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn write caught by the checksum
		}
		recs, err := decodeWALRecords(payload)
		if err != nil {
			// The frame and CRC are intact, so this is not a torn
			// write: only tolerate it at the very end of the file.
			if cr.n == fileSize(f) {
				break
			}
			return maxSeq, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrBadWAL, goodEnd, err)
		}
		goodEnd = cr.n
		fresh := recs[:0]
		for _, rec := range recs {
			if rec.seq > afterSeq {
				fresh = append(fresh, rec)
			}
			maxSeq = max(maxSeq, rec.seq)
		}
		if len(fresh) > 0 {
			apply(fresh)
		}
	}
	// Torn tail: drop everything past the last intact record.
	return maxSeq, os.Truncate(path, goodEnd)
}

// rewriteWALHeader resets a log too short to hold its magic.
func rewriteWALHeader(path string) error {
	w, err := createWAL(path)
	if err != nil {
		return err
	}
	return w.close()
}

func fileSize(f *os.File) int64 {
	fi, err := f.Stat()
	if err != nil {
		return -1
	}
	return fi.Size()
}

// countingReader counts consumed bytes so recovery knows where the
// last intact record ended.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}
