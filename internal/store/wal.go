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

// decodeRecord decodes one record's payload, all or nothing: a payload
// that fails mid-batch yields none of it, so replay's torn-tail
// tolerance stays frame-granular. Payloads alias the given bytes.
func decodeRecord(payload []byte) (r record, err error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n == len(payload) {
		return record{}, errors.New("truncated record header")
	}
	kind, body := payload[n], payload[n+1:]
	r = record{seq: seq, remove: kind == opRemove || kind == opRemoveBatch}
	switch kind {
	case opInsertBatch:
		r.inserts, body, err = ReadInserts(body)
	case opRemoveBatch:
		r.removes, body, err = ReadRemoves(body)
	case opInsert, opRemove:
		var list uint64
		if list, n = binary.Uvarint(body); n <= 0 {
			return record{}, errShortOp
		}
		var id zerber.ListID
		if id, err = CheckListID(int64(list)); err != nil {
			return record{}, err
		}
		if kind == opInsert {
			r.inserts = make([]BatchInsert, 1)
			r.inserts[0], body, err = readInsert(body[n:], id)
		} else {
			r.removes = make([]BatchRemove, 1)
			r.removes[0], body, err = readRemove(body[n:], id)
		}
	default:
		return record{}, fmt.Errorf("unknown op %d", kind)
	}
	if err != nil {
		return record{}, err
	}
	if len(body) != 0 {
		return record{}, fmt.Errorf("record leaves %d trailing bytes", len(body))
	}
	return r, nil
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

// frameReader reads framed records one at a time — the one reader of
// recovery (replayWAL), tail export (Durable.TailSince) and tail apply
// (ApplyTail).
type frameReader struct {
	r interface {
		io.Reader
		io.ByteReader
	}
	off  int64 // bytes consumed: after next succeeds, the end of its frame
	size int64 // bytes the reader holds in all
}

func (fr *frameReader) ReadByte() (byte, error) {
	b, err := fr.r.ReadByte()
	if err == nil {
		fr.off++
	}
	return b, err
}

// next returns the next frame's payload in a buffer of its own, which
// the caller may keep. It returns io.EOF at a clean end, errTornFrame
// for a frame cut short or failing its checksum, and ErrBadWAL for a
// length no record may have. What it allocates is bounded by the bytes
// that remain, never by a length it merely reads.
func (fr *frameReader) next() ([]byte, error) {
	payloadLen, err := binary.ReadUvarint(fr)
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, errTornFrame
	}
	if payloadLen > maxWALRecord {
		return nil, fmt.Errorf("%w: record of %d bytes", ErrBadWAL, payloadLen)
	}
	if payloadLen+4 > uint64(fr.size-fr.off) {
		return nil, errTornFrame
	}
	frame := make([]byte, payloadLen+4)
	n, err := io.ReadFull(fr.r, frame)
	fr.off += int64(n)
	if err != nil {
		return nil, errTornFrame
	}
	payload, sum := frame[:payloadLen], binary.BigEndian.Uint32(frame[payloadLen:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, errTornFrame
	}
	return payload, nil
}

// each decodes every record left in fr and calls fn with each, in
// order. It tolerates nothing — a torn frame or an
// undecodable record anywhere is ErrBadWAL — as the reader of a live
// log, whose appends are whole, or of a peer's tail must.
func (fr *frameReader) each(fn func(record)) error {
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: undecodable record ending at offset %d: %v", ErrBadWAL, fr.off, err)
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
func replayWAL(path string, afterSeq uint64, apply func(record)) (maxSeq uint64, _ error) {
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

	fr, err := logReader(f)
	if errors.Is(err, errTornFrame) {
		// Shorter than the header: treat as torn at offset zero and
		// rebuild the header.
		return maxSeq, rewriteWALHeader(path)
	}
	if err != nil {
		return maxSeq, err
	}
	goodEnd := fr.off // offset just past the last intact record
	for {
		payload, err := fr.next()
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
			if fr.off == fr.size {
				break
			}
			return maxSeq, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrBadWAL, goodEnd, err)
		}
		goodEnd = fr.off
		if n := r.ops(); n > 0 {
			maxSeq = max(maxSeq, r.seq+uint64(n)-1)
		}
		if r = r.since(afterSeq); r.ops() > 0 {
			apply(r)
		}
	}
	// Torn tail: drop everything past the last intact record.
	return maxSeq, os.Truncate(path, goodEnd)
}

// logReader checks the magic at the head of the log f and returns a
// reader of the records after it. A file too short to hold the magic
// is errTornFrame.
func logReader(f *os.File) (*frameReader, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fr := &frameReader{r: bufio.NewReader(f), size: fi.Size()}
	magic := make([]byte, len(walMagic))
	n, err := io.ReadFull(fr.r, magic)
	fr.off = int64(n)
	if err != nil {
		return nil, errTornFrame
	}
	if string(magic) != string(walMagic) {
		return nil, fmt.Errorf("%w: magic %q", ErrBadWAL, magic)
	}
	return fr, nil
}

// rewriteWALHeader resets a log too short to hold its magic.
func rewriteWALHeader(path string) error {
	w, err := createWAL(path)
	if err != nil {
		return err
	}
	return w.close()
}
