package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/zerber"
)

// File names inside a Durable data directory.
const (
	walFileName   = "wal.zwal"
	snapFileName  = "snapshot.zsnap"
	lockFileName  = "LOCK"
	epochFileName = "epoch"
)

// Options tunes a Durable store. The zero value is a sensible default.
type Options struct {
	// SnapshotEvery is how many logged operations trigger an automatic
	// snapshot (which compacts the WAL). Zero means DefaultSnapshotEvery;
	// negative disables automatic snapshots (explicit Snapshot and the
	// WAL still provide durability). The writer whose operation crosses
	// the threshold takes the snapshot on its own goroutine before it
	// returns; the other writers wait only for the freeze and the switch
	// to a fresh log segment, not for the encode (Durable.Snapshot). A
	// threshold crossed while a snapshot is in flight fires at the next
	// operation after it ends.
	SnapshotEvery int
	// FsyncEach makes a mutation return only once its log record is on
	// disk. The fsync runs after every lock is released and is shared:
	// a writer whose record an fsync that began later already covered
	// returns without one of its own, so concurrent writers split the
	// disk round-trips between them and readers never wait on the disk
	// (a reader may therefore see a mutation whose record the OS holds
	// but the disk does not yet — what every reader sees without
	// FsyncEach).
	// Without it, records are pushed to the OS per operation (surviving
	// process crashes) and fsynced on Snapshot and Close (an OS crash
	// can lose the tail written since). The torn-record recovery path
	// handles whatever the crash leaves behind either way.
	FsyncEach bool
	// GroupCommitWindow is a no-op, read by nothing: every mutation is
	// logged under the store's lock before memory changes, and FsyncEach
	// alone selects the durability level. The field (and
	// DefaultCommitWindow) remains only because the frozen benchmark
	// module names it; ROADMAP item 1 (ii) deletes both.
	GroupCommitWindow time.Duration
	// Logf, when set, receives operational warnings the store cannot
	// return to any caller (automatic-snapshot failures, WAL poisoning).
	Logf func(format string, args ...any)
	// Obs, when set, receives the store's durability metrics: WAL
	// append and fsync latency histograms, snapshot timings and
	// outcomes, and the WAL-poisoned gauge (see the Metric* constants).
	// Nil disables instrumentation entirely — the hot path then pays
	// only nil checks, no clock reads.
	Obs *obs.Registry
}

// Metric names the store registers on Options.Obs. Exported so the
// stats endpoint (and tests) can locate the families without string
// drift.
const (
	MetricWALAppendSeconds = "zerber_wal_append_seconds"
	MetricWALFsyncSeconds  = "zerber_wal_fsync_seconds"
	MetricSnapshotSeconds  = "zerber_snapshot_seconds"
	MetricSnapshotFreeze   = "zerber_snapshot_freeze_seconds"
	MetricSnapshotsTotal   = "zerber_snapshots_total"
	MetricWALRecordsTotal  = "zerber_wal_records_total"
	MetricWALPoisoned      = "zerber_wal_poisoned"
)

// durableMetrics holds the handles Durable observes into. All fields
// are nil when Options.Obs is nil (every obs method is nil-safe, and
// timed sections additionally gate their clock reads).
type durableMetrics struct {
	walAppend *obs.Histogram
	walFsync  *obs.Histogram
	snapshot  *obs.Histogram
	freeze    *obs.Histogram
	snapOK    *obs.Counter
	snapErr   *obs.Counter
	logged    *obs.Counter
	poisoned  *obs.Gauge
}

func newDurableMetrics(r *obs.Registry) durableMetrics {
	if r == nil {
		return durableMetrics{}
	}
	return durableMetrics{
		walAppend: r.Histogram(MetricWALAppendSeconds, "WAL record append latency (frame+checksum+write, no fsync)"),
		walFsync:  r.Histogram(MetricWALFsyncSeconds, "WAL fsync latency"),
		snapshot:  r.Histogram(MetricSnapshotSeconds, "full snapshot write+compact latency"),
		freeze:    r.Histogram(MetricSnapshotFreeze, "time a snapshot holds the store lock writers wait on: freeze and log segment switch"),
		snapOK:    r.Counter(MetricSnapshotsTotal, "snapshots attempted by result", obs.Label{Name: "result", Value: "ok"}),
		snapErr:   r.Counter(MetricSnapshotsTotal, "snapshots attempted by result", obs.Label{Name: "result", Value: "error"}),
		logged:    r.Counter(MetricWALRecordsTotal, "records appended to the WAL (a batched insert counts once)"),
		poisoned:  r.Gauge(MetricWALPoisoned, "1 while the WAL refuses mutations after a write failure"),
	}
}

// DefaultSnapshotEvery is the automatic compaction threshold.
const DefaultSnapshotEvery = 1 << 16

// DefaultCommitWindow is a no-op value for the no-op
// Options.GroupCommitWindow, kept for the same reason.
const DefaultCommitWindow = 200 * time.Microsecond

// Durable is a crash-safe Backend: a Memory store whose mutations are
// write-ahead logged, periodically folded into an atomic snapshot, and
// replayed on startup. All methods are safe for concurrent use.
type Durable struct {
	mem *Memory
	dir string
	opt Options
	met durableMetrics

	mu sync.Mutex // serializes mutations, log appends, snapshot freezes
	// wal is the live log segment. Appends use it under mu; a segment
	// switch replaces it under mu and syncMu, so syncThrough reads it
	// under syncMu.
	wal          *wal
	lock         *os.File // held flock on the data directory
	seq          uint64   // sequence of the last logged operation
	walBase      uint64   // sequence the log on disk starts after (the last snapshot's)
	opsSinceSnap int
	lastSnapErr  error // most recent automatic-snapshot failure, if any

	// snapping is set, under mu, while a snapshot is in flight — from
	// its freeze to its end — and snapDone (L is &mu) is broadcast when
	// it clears: at most one runs, Snapshot, ExportSnapshot,
	// ImportSnapshot and Close wait for it, and the automatic trigger
	// skips. retired lists the log segments a switch set aside that no
	// finished snapshot covers yet, oldest first (segmentPath), under mu.
	snapping bool
	snapDone sync.Cond
	retired  []string
	// snapPause, when set, is called on the snapshotting goroutine at
	// each step of a snapshot: the seam tests stop one at, mid-encode or
	// between its rename and the end.
	snapPause func(step snapStep, lists int)

	// written mirrors seq for syncThrough, which runs without d.mu: it
	// is stored once a record is in the OS, so an fsync that starts
	// after loading it covers every sequence up to it.
	written atomic.Uint64

	// syncMu guards synced, the highest sequence known to be on disk,
	// and syncing, set while a writer's fsync is in flight (it runs with
	// syncMu released; syncDone is broadcast when it returns). Taken
	// after d.mu when both are held.
	syncMu   sync.Mutex
	syncDone sync.Cond // L is &syncMu
	synced   uint64
	syncing  bool
	// retiring is the segment the snapshot in flight switched away
	// from, until that snapshot has put it on disk and closed it: an
	// fsync in the meantime covers it as well as wal. Guarded by syncMu.
	retiring *wal

	// walErr is the sticky log failure, set when the on-disk state is
	// ambiguous. It lives under its own mutex — not d.mu — because
	// syncThrough sets it with no other lock of the store held.
	// hasPoison mirrors walErr != nil so the per-mutation health check
	// is one atomic load, not a lock round-trip.
	poisonMu  sync.Mutex
	walErr    error
	hasPoison atomic.Bool

	// closed is atomic so the read path can refuse service after Close
	// without serializing on mu.
	closed atomic.Bool
}

// snapStep names where Durable.snapPause is called.
type snapStep int

const (
	// snapEncoding: before each list the encoder writes, the log already
	// switched; lists is how many it has written.
	snapEncoding snapStep = iota
	// snapRenamed: the snapshot is in place, the old segments not yet
	// deleted.
	snapRenamed
	// snapRetired: the old segments are deleted.
	snapRetired
)

// OpenDurable opens (or initializes) the store in dir, recovering
// state from the snapshot plus the WAL tail. A torn final WAL record —
// the normal residue of a crash mid-append — is truncated away and
// recovery returns everything up to the last complete operation.
func OpenDurable(dir string, opt Options) (*Durable, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	lock, err := lockDir(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, fmt.Errorf("store: locking %s: %w", dir, err)
	}
	fail := func(err error) (*Durable, error) {
		unlockDir(lock)
		return nil, err
	}
	snapSeq, mem, err := readSnapshot(filepath.Join(dir, snapFileName))
	if err != nil {
		return fail(fmt.Errorf("store: loading snapshot: %w", err))
	}
	// The version epoch is fixed per data directory (created on first
	// open, durable before any mutation can be logged): WAL replay
	// re-creates post-snapshot lists with the same epoch it used live,
	// so a recovered store reports bit-identical versions — replay
	// reproduces the identical mutation history, which is exactly when
	// version reuse is sound. Only wiping the directory (content gone)
	// mints a new epoch.
	epoch, err := loadOrCreateEpoch(filepath.Join(dir, epochFileName))
	if err != nil {
		return fail(fmt.Errorf("store: version epoch: %w", err))
	}
	mem.verBase = epoch
	w, maxSeq, retired, err := replayLog(dir, filepath.Join(dir, walFileName), snapSeq, func(r record) {
		// One record's inserts are one insertBatch, as the live write
		// that logged them was; it copies the payloads out of the frame.
		mem.insertBatch(r.inserts)
		for _, op := range r.removes {
			// A remove that no longer matches (its insert was folded into
			// the snapshot differently, or the log was truncated between
			// the pair) is a no-op, not corruption.
			_ = mem.Remove(op.List, op.Sealed, nil)
		}
	})
	if err != nil {
		return fail(fmt.Errorf("store: replaying WAL: %w", err))
	}
	d := &Durable{mem: mem, dir: dir, opt: opt, met: newDurableMetrics(opt.Obs), wal: w, lock: lock, seq: maxSeq, walBase: snapSeq, retired: retired}
	d.written.Store(maxSeq)
	d.syncDone.L = &d.syncMu
	d.snapDone.L = &d.mu
	return d, nil
}

// loadOrCreateEpoch reads the directory's persisted version epoch, or
// mints and durably writes one on first open (8 bytes big-endian;
// written to a temp file and renamed so a crash mid-create leaves
// either nothing or a complete epoch).
func loadOrCreateEpoch(path string) (uint64, error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		if len(raw) != 8 {
			return 0, fmt.Errorf("epoch file is %d bytes, want 8", len(raw))
		}
		return binary.BigEndian.Uint64(raw), nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	epoch := uint64(rand.Uint32()) << 32
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], epoch)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp)
	if _, err := f.Write(buf[:]); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return epoch, syncDir(filepath.Dir(path))
}

// appendLocked logs one payload that consumes ops sequence numbers
// (the batch size; the caller encoded firstSeq = d.seq+1 into it): the
// record is framed, written and flushed to the OS before it returns, so
// the caller mutates memory only for a record a process crash cannot
// lose. Callers hold d.mu. Under FsyncEach the caller follows up with
// syncThrough once it has released every lock.
//
// A failed write leaves the on-disk log in an ambiguous state: the
// record may be partially written (a later append would turn that
// torn tail into mid-file corruption) or fully framed yet reported
// failed (a reused sequence number would make recovery double-apply).
// So any write failure poisons the log — mutations are refused until
// a snapshot succeeds, which captures the live state, deletes the log
// segments it covers, and clears the poison.
func (d *Durable) appendLocked(payload []byte, ops int) error {
	if werr := d.poisoned(); werr != nil {
		return poisonedError(werr)
	}
	var start time.Time
	if d.met.walAppend != nil {
		start = time.Now()
	}
	if err := d.wal.write(frameRecord(payload)); err != nil {
		d.poison(err)
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	if d.met.walAppend != nil {
		d.met.walAppend.Observe(time.Since(start).Seconds())
	}
	d.met.logged.Inc()
	d.seq += uint64(ops)
	d.opsSinceSnap += ops
	d.written.Store(d.seq)
	return nil
}

// syncThrough returns once every record up to seq is on disk; without
// FsyncEach that is not promised and it returns at once. Callers hold
// no lock of the store. One writer at a time fsyncs, covering
// everything written before it began; the others wait for it, and when
// it returns those it covered leave together while one of the rest —
// whose records were written during that fsync — runs the next. So
// concurrent writers pay about two fsyncs between them, a lone writer
// one, and nobody waits out a window. A writer that loses the race to a
// snapshot, an import or Close finds its sequence covered as well: they
// advance the mark under the same mutex.
//
// A failed fsync poisons the log like a failed write, and every waiter
// it did not cover gets the sticky error: the kernel may have dropped
// the dirty pages, so a later fsync that succeeds proves nothing about
// them. The operations are in memory and in the OS; the healing
// snapshot is what persists them.
func (d *Durable) syncThrough(seq uint64) error {
	if !d.opt.FsyncEach {
		return nil
	}
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	for {
		if d.synced >= seq {
			return nil
		}
		if werr := d.poisoned(); werr != nil {
			return poisonedError(werr)
		}
		if !d.syncing {
			break
		}
		d.syncDone.Wait()
	}
	through := d.written.Load()
	live, retiring := d.wal, d.retiring
	d.syncing = true
	d.syncMu.Unlock()
	var start time.Time
	if d.met.walFsync != nil {
		start = time.Now()
	}
	var err error
	if retiring != nil {
		err = retiring.fsync() // records up to the switch are there
	}
	if err == nil {
		err = live.fsync()
	}
	if err == nil && d.met.walFsync != nil {
		d.met.walFsync.Observe(time.Since(start).Seconds())
	}
	d.syncMu.Lock()
	d.syncing = false
	d.syncDone.Broadcast()
	if err != nil {
		d.poison(err)
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	d.synced = through
	return nil
}

// lockSync takes syncMu once no writer's fsync is in flight, and until
// the caller releases it none starts: what Close holds while it closes
// the file.
func (d *Durable) lockSync() {
	d.syncMu.Lock()
	for d.syncing {
		d.syncDone.Wait()
	}
}

func poisonedError(werr error) error {
	return fmt.Errorf("store: WAL poisoned by earlier failure (snapshot to recover): %w", werr)
}

// poison records a log write or fsync failure. Safe from any goroutine
// (syncThrough calls it without d.mu); only the first failure is kept.
func (d *Durable) poison(err error) {
	d.poisonMu.Lock()
	first := d.walErr == nil
	if first {
		d.walErr = err
		d.hasPoison.Store(true)
	}
	d.poisonMu.Unlock()
	if !first {
		return
	}
	d.met.poisoned.Set(1)
	if d.opt.Logf != nil {
		d.opt.Logf("store: WAL write failed, refusing further mutations until a snapshot succeeds: %v", err)
	}
}

// poisoned reports the sticky log-write failure, if any.
func (d *Durable) poisoned() error {
	if !d.hasPoison.Load() {
		return nil
	}
	d.poisonMu.Lock()
	defer d.poisonMu.Unlock()
	return d.walErr
}

// clearPoison forgets the failure after a successful snapshot or
// import made the log whole again.
func (d *Durable) clearPoison() {
	d.poisonMu.Lock()
	d.walErr = nil
	d.hasPoison.Store(false)
	d.poisonMu.Unlock()
	d.met.poisoned.Set(0)
}

// maybeSnapshotLocked begins an automatic snapshot when the op
// threshold is crossed and none is in flight; the writer that tripped
// it finishes the job with autoSnapshot once it has released d.mu.
func (d *Durable) maybeSnapshotLocked() *snapJob {
	if d.opt.SnapshotEvery < 0 || d.opsSinceSnap < d.opt.SnapshotEvery || d.snapping {
		return nil
	}
	job, err := d.beginSnapshotLocked()
	if err != nil {
		d.opsSinceSnap = 0
		d.lastSnapErr = err
		d.logSnapErr(err)
		return nil
	}
	job.auto = true
	return job
}

// autoSnapshot finishes an automatic snapshot (nil: none began). A
// failure never propagates to the mutation that tripped it — the
// mutation is already durably logged, and failing it would make the
// client retry a write that took effect. The error is kept for
// LastSnapshotError and the snapshot retried a full interval later
// (the log keeps growing meanwhile, so nothing is lost).
func (d *Durable) autoSnapshot(job *snapJob) {
	if job != nil {
		_ = d.runSnapshot(job, nil) // kept for LastSnapshotError, and logged
	}
}

func (d *Durable) logSnapErr(err error) {
	if d.opt.Logf != nil {
		d.opt.Logf("store: automatic snapshot failed (will retry in %d ops): %v", d.opt.SnapshotEvery, err)
	}
}

// LastSnapshotError reports the most recent automatic-snapshot
// failure, or nil. A later successful snapshot clears it.
func (d *Durable) LastSnapshotError() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSnapErr
}

// Name implements Backend.
func (d *Durable) Name() string { return "durable" }

// Insert implements Backend: an InsertBatch of one.
func (d *Durable) Insert(list zerber.ListID, el Element) error {
	return d.InsertBatch([]BatchInsert{{List: list, Element: el}})
}

// InsertBatch implements Backend: validate nothing (inserts always
// apply), log the whole batch as one opInsertBatch record (chunked only
// if its encoding would breach the record size bound), then apply each
// logged chunk with one insertBatch, each element bumping its list's
// version exactly as N single Inserts would — all under d.mu, so
// memory-apply order equals log order and recovery, one insertBatch per
// record, replays the identical history. One record means one length
// prefix, one CRC, one write and — under FsyncEach — at most one fsync
// for the entire batch, after d.mu is released.
func (d *Durable) InsertBatch(ops []BatchInsert) error {
	if len(ops) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return ErrClosed
	}
	for len(ops) > 0 {
		n := batchRecordPrefix(len(ops), func(i int) int { return len(ops[i].Element.Sealed) })
		chunk := ops[:n]
		ops = ops[n:]
		if err := d.appendLocked(encodeRecord(record{seq: d.seq + 1, inserts: chunk}), len(chunk)); err != nil {
			d.mu.Unlock()
			return err
		}
		d.mem.insertBatch(chunk)
	}
	job := d.maybeSnapshotLocked()
	seq := d.seq
	d.mu.Unlock()
	d.autoSnapshot(job)
	return d.syncThrough(seq)
}

// batchRecordPrefix reports how many of a batch's n remaining ops go
// into the next batched record: as many as keep its encoding under
// maxBatchRecordBytes, and at least one. sealedLen is op i's payload
// length; the rest of an entry is bounded conservatively.
func batchRecordPrefix(n int, sealedLen func(i int) int) int {
	k, size := 0, 0
	for k < n {
		opSize := 3*16 + 8 + sealedLen(k)
		if k > 0 && size+opSize > maxBatchRecordBytes {
			break
		}
		size += opSize
		k++
	}
	return k
}

// Remove implements Backend.
func (d *Durable) Remove(list zerber.ListID, sealed []byte, allow func(group int) bool) error {
	return oneRemove(d.RemoveBatch([]BatchRemove{{List: list, Sealed: sealed}}, allow))
}

// RemoveBatch implements Backend. The removal commits to memory and
// the log as one step under the lists' write locks: every op resolves,
// the ACL predicate observes each victim, the batch is appended as one
// opRemoveBatch record (chunked like InsertBatch's), and only a
// successful append mutates the lists. So a rejected batch never
// reaches the log, a failed append leaves the lists — content *and*
// versions — exactly as they were (no rollback that would burn
// unlogged version bumps; recovery must be able to reproduce every
// version a reader may have observed), and no reader can ever see a
// removal the log does not hold. A batch too large for one record
// (more than any request can carry) logs every chunk before it deletes
// anything; an append failing between two chunks poisons the log like
// any other failed append, with the same ambiguity — the healing
// snapshot captures the lists as memory holds them, untouched, while a
// crash before it would replay the chunks that reached the disk.
//
// Readers of the same lists wait out the append — a buffered write —
// and nothing else: under FsyncEach the fsync runs after d.mu and the
// list locks are released (syncThrough).
func (d *Durable) RemoveBatch(ops []BatchRemove, allow func(group int) bool) error {
	if len(ops) == 0 {
		return nil
	}
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return ErrClosed
	}
	err := d.mem.removeBatch(ops, allow, func() error {
		for rest := ops; len(rest) > 0; {
			n := batchRecordPrefix(len(rest), func(i int) int { return len(rest[i].Sealed) })
			if err := d.appendLocked(encodeRecord(record{seq: d.seq + 1, remove: true, removes: rest[:n]}), n); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	})
	if err != nil {
		d.mu.Unlock()
		return err
	}
	job := d.maybeSnapshotLocked()
	seq := d.seq
	d.mu.Unlock()
	d.autoSnapshot(job)
	return d.syncThrough(seq)
}

// Snapshot writes the full state atomically and compacts the log.
// Safe to call at any time; it waits for a snapshot already in flight.
// Writers wait only while it switches the log to a fresh segment and
// freezes the store (beginSnapshotLocked); it encodes, fsyncs and
// renames on the caller's goroutine with no lock of the store held,
// while writers append to the new segment and readers proceed.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	job, err := d.startSnapshotLocked()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.runSnapshot(job, nil)
}

// snapJob is one snapshot between its freeze and its end.
type snapJob struct {
	view *snapView
	seq  uint64 // the sequence the snapshot covers
	old  *wal   // the segment the switch set aside
	// healing is set when the log was poisoned at the switch: the
	// snapshot covers everything memory holds, so its end clears the
	// poison. A failure after the switch is not covered, and stays.
	healing bool
	auto    bool // begun by maybeSnapshotLocked
	start   time.Time
}

// startSnapshotLocked waits out a snapshot in flight and begins one.
// Callers hold d.mu.
func (d *Durable) startSnapshotLocked() (*snapJob, error) {
	for d.snapping {
		d.snapDone.Wait()
	}
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.beginSnapshotLocked()
}

// beginSnapshotLocked is the part of a snapshot writers wait for: it
// switches the log to a fresh segment and freezes the store's view at
// d.seq. Callers hold d.mu with no snapshot in flight, and finish the
// job with runSnapshot after releasing it.
func (d *Durable) beginSnapshotLocked() (*snapJob, error) {
	start := time.Now()
	old, err := d.switchSegmentLocked()
	if err != nil {
		d.snapshotDone(start, err)
		return nil, err
	}
	job := &snapJob{view: d.mem.freeze(), seq: d.seq, old: old, healing: d.poisoned() != nil, start: start}
	d.snapping = true
	d.opsSinceSnap = 0
	d.met.freeze.Observe(time.Since(start).Seconds())
	return job, nil
}

// switchSegmentLocked sets the live log segment aside as the next
// retired one and starts a fresh live segment, returning the old
// handle. Every record is in the file already (appendLocked flushed
// it), so the switch copies nothing: a rename and a create, no fsync.
// Callers hold d.mu.
func (d *Durable) switchSegmentLocked() (*wal, error) {
	live, retired := filepath.Join(d.dir, walFileName), segmentPath(d.dir, len(d.retired)+1)
	if err := os.Rename(live, retired); err != nil {
		return nil, fmt.Errorf("store: switching WAL segment: %w", err)
	}
	w, err := createWAL(live)
	if err != nil {
		// The old segment is still the live one: put its name back.
		if rerr := os.Rename(retired, live); rerr != nil {
			d.poison(rerr)
		}
		return nil, fmt.Errorf("store: switching WAL segment: %w", err)
	}
	d.retired = append(d.retired, retired)
	old := d.wal
	d.syncMu.Lock()
	d.wal, d.retiring = w, old
	d.syncMu.Unlock()
	return old, nil
}

// runSnapshot finishes a job begun under d.mu. It puts the old segment
// on disk, encodes the view into the snapshot file — and into also,
// when set — fsyncs and renames it, all with no lock of the store held,
// and deletes the segments the snapshot covers. Then the next snapshot
// may begin.
func (d *Durable) runSnapshot(job *snapJob, also io.Writer) error {
	err := d.settleRetiring(job.old, job.seq)
	if err == nil {
		err = writeSnapshot(filepath.Join(d.dir, snapFileName), func(w io.Writer) error {
			if also != nil {
				w = io.MultiWriter(w, also)
			}
			return encodeView(w, job.seq, job.view, func(lists int) { d.pause(snapEncoding, lists) })
		})
		if err != nil {
			err = fmt.Errorf("store: writing snapshot: %w", err)
		}
	}
	d.mu.Lock()
	d.mem.thaw(job.view)
	var retired []string
	if err == nil {
		// The snapshot holds everything the segments set aside so far
		// do: from here a tail starts after its sequence.
		retired, d.retired = d.retired, nil
		d.walBase = job.seq
	}
	d.mu.Unlock()
	if err == nil {
		d.pause(snapRenamed, 0)
		retired, err = removeSegments(d.dir, retired)
		d.pause(snapRetired, 0)
	}
	d.mu.Lock()
	d.retired = append(retired, d.retired...)
	if err == nil {
		d.syncMu.Lock()
		d.synced = max(d.synced, job.seq)
		d.syncMu.Unlock()
		// Only once the old segments are gone: a poisoned log's
		// ambiguous record sits in one of them, and no new record may
		// take its sequence while it can still be replayed.
		if job.healing {
			d.clearPoison()
		}
	}
	if job.auto {
		d.lastSnapErr = err
	}
	d.snapping = false
	d.snapDone.Broadcast()
	d.mu.Unlock()
	if job.auto && err != nil {
		d.logSnapErr(err)
	}
	d.snapshotDone(job.start, err)
	return err
}

// snapshotDone records a snapshot's duration and outcome.
func (d *Durable) snapshotDone(start time.Time, err error) {
	d.met.snapshot.Observe(time.Since(start).Seconds())
	if err == nil {
		d.met.snapOK.Inc()
	} else {
		d.met.snapErr.Inc()
	}
}

// pause calls the snapPause seam, if set.
func (d *Durable) pause(step snapStep, lists int) {
	if d.snapPause != nil {
		d.snapPause(step, lists)
	}
}

// settleRetiring puts the segment a switch set aside on disk and closes
// it, running as the one fsync in flight so that no writer's
// syncThrough touches the handle as it closes; its success covers every
// sequence up to seq. A failure poisons the log as a writer's failed
// fsync does — the error is reported once per file, and a later fsync
// must not pass for it — unless the log is poisoned already: then the
// snapshot is the recovery path, which does not depend on the segment.
func (d *Durable) settleRetiring(old *wal, seq uint64) error {
	d.syncMu.Lock()
	for d.syncing {
		d.syncDone.Wait()
	}
	d.syncing = true
	d.syncMu.Unlock()
	err := old.fsync()
	d.syncMu.Lock()
	d.syncing = false
	d.syncDone.Broadcast()
	d.retiring = nil
	if err == nil {
		d.synced = max(d.synced, seq)
	}
	d.syncMu.Unlock()
	if cerr := old.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && d.poisoned() == nil {
		d.poison(err)
		return fmt.Errorf("store: syncing WAL before snapshot: %w", err)
	}
	return nil
}

// Reads answer from memory but refuse a closed store: after Close the
// WAL is gone and the in-RAM state is no longer maintained, so
// answering would silently serve a frozen index. Mutations take the
// same stance via d.mu; reads check the atomic flag instead so they
// never queue behind a snapshot.

// Query implements Backend.
func (d *Durable) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error) {
	if d.closed.Load() {
		return QueryResult{}, ErrClosed
	}
	return d.mem.Query(list, allowed, offset, count)
}

// Version implements Backend. Versions survive restarts: snapshots
// record each list's counter and WAL replay re-applies the logged
// mutations (each bumping it once), so the recovered counter equals
// the pre-crash one and keeps climbing from there — a cached window
// keyed by an old version can never be revalidated by coincidence.
func (d *Durable) Version(list zerber.ListID) (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.mem.Version(list)
}

// View implements Backend.
func (d *Durable) View(list zerber.ListID, fn func(elems []Element)) error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.mem.View(list, fn)
}

// Len implements Backend.
func (d *Durable) Len(list zerber.ListID) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.mem.Len(list)
}

// Lists implements Backend.
func (d *Durable) Lists() ([]zerber.ListID, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.mem.Lists()
}

// NumLists implements Backend.
func (d *Durable) NumLists() (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.mem.NumLists()
}

// NumElements implements Backend.
func (d *Durable) NumElements() (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.mem.NumElements()
}

// Seq returns the sequence number of the last logged operation
// (diagnostics, tests).
func (d *Durable) Seq() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.seq
}

// Close flushes and fsyncs the WAL and releases the store. The data
// directory can be reopened afterwards.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.snapping {
		d.snapDone.Wait()
	}
	if d.closed.Swap(true) {
		return nil
	}
	// Under syncMu, and poisoning on failure: a writer still waiting for
	// its fsync then finds its sequence covered or the sticky error, and
	// never syncs the closed file.
	d.lockSync()
	err := d.wal.close()
	if err == nil {
		d.synced = d.seq
	} else {
		d.poison(err)
	}
	d.syncMu.Unlock()
	if uerr := unlockDir(d.lock); err == nil {
		err = uerr
	}
	if err != nil {
		return fmt.Errorf("store: closing: %w", err)
	}
	return nil
}

var _ Backend = (*Durable)(nil)
