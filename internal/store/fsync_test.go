package store

// Tests for the shared fsync of FsyncEach (Durable.syncThrough): the
// only concurrency on the write path outside the locks. They drive the
// fsync through wal.syncFile and wait on events, never on the clock.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/zerber"
)

// heldFsync replaces a store's fsync with one the test answers: every
// call announces itself on started, carrying the highest sequence that
// was in the OS when it began, and returns what the test sends on
// release (nil once release is closed).
type heldFsync struct {
	started chan uint64
	release chan error
	calls   atomic.Int32
	// covered is the highest announced sequence among the calls that
	// have returned nil: what is on disk.
	covered atomic.Uint64
}

func holdFsync(d *Durable) *heldFsync {
	h := &heldFsync{started: make(chan uint64, 64), release: make(chan error)}
	d.wal.syncFile = func() error {
		h.calls.Add(1)
		through := d.written.Load()
		h.started <- through
		err := <-h.release
		if err == nil && through > h.covered.Load() {
			h.covered.Store(through) // calls are serialized by the store
		}
		return err
	}
	return h
}

// waitSeq spins until the store has logged seq operations.
func waitSeq(d *Durable, seq uint64) {
	for d.written.Load() < seq {
		runtime.Gosched()
	}
}

// settledGoroutines reads the goroutine count, giving it a moment to
// come back down to want: the runtime's finalizer goroutine is counted
// while it runs a finalizer (a collected *os.File's, say), so a single
// high reading proves no leak. The deadline only bounds a failing run.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestSharedFsyncCoversLaterWriters: N concurrent writers pay two
// fsyncs between them, and none returns before an fsync that began
// after its record was written has finished.
func TestSharedFsyncCoversLaterWriters(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	h := holdFsync(d)
	const writers = 8
	// coveredAtReturn[w] is what was on disk when writer w's Insert
	// returned.
	var coveredAtReturn [writers]uint64
	var wg sync.WaitGroup
	insert := func(w int) {
		defer wg.Done()
		if err := d.Insert(zerber.ListID(w), el(fmt.Sprintf("w%d", w), 1, 0)); err != nil {
			t.Error(err)
		}
		coveredAtReturn[w] = h.covered.Load()
	}
	wg.Add(1)
	go insert(0)
	<-h.started // writer 0's fsync is in flight, and held there
	for w := 1; w < writers; w++ {
		wg.Add(1)
		go insert(w)
	}
	waitSeq(d, writers) // every record is in the OS; their writers queue for the fsync
	h.release <- nil    // writer 0's fsync: it began before the others wrote
	if through := <-h.started; through != writers {
		t.Fatalf("second fsync began with %d records written, want %d", through, writers)
	}
	h.release <- nil // covers everyone
	close(h.release)
	wg.Wait()
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("%d writers ran %d fsyncs, want 2: the first writer's, and one shared by the rest", writers, n)
	}
	// Log order gives every writer's sequence.
	tail, err := d.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tailRecords(t, tail) {
		w, seq := int(r.inserts[0].List), uint64(i+1)
		if coveredAtReturn[w] < seq {
			t.Errorf("writer %d (seq %d) returned with only seq %d on disk", w, seq, coveredAtReturn[w])
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFsyncCoveredWriterLeavesDuringNextFsync: a writer whose
// record an fsync covered returns even though the next fsync is already
// in flight — it waits for coverage, not behind other writers' disks.
// Two writers share an fsync and each at once writes again: whichever
// ran the shared fsync is back, running the next one, before the other
// has woken up, and that next fsync is held until both have returned
// from their first insert.
func TestSharedFsyncCoveredWriterLeavesDuringNextFsync(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	h := holdFsync(d)
	first, second := make(chan error, 2), make(chan error, 3)
	go func() { second <- d.Insert(1, el("opener", 0, 0)) }()
	<-h.started // fsync 1, the opener's
	for w := 1; w <= 2; w++ {
		go func(w int) {
			first <- d.Insert(1, el(fmt.Sprintf("w%d-1", w), float64(w), 0))
			second <- d.Insert(1, el(fmt.Sprintf("w%d-2", w), float64(w), 0))
		}(w)
	}
	waitSeq(d, 3)
	h.release <- nil // the opener returns; one of the two runs fsync 2, covering both
	<-h.started
	h.release <- nil // fsync 2 done: both are covered, and one of them is already writing again
	<-h.started      // fsync 3, held
	for w := 0; w < 2; w++ {
		select {
		case err := <-first:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second): // bounds a failing run only
			t.Fatal("a covered writer is stuck behind the next writer's fsync")
		}
	}
	close(h.release)
	for w := 0; w < 3; w++ {
		if err := <-second; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFsyncReadersNeverWait: while a remove's fsync is in
// flight, a query of the same list returns, and already sees the
// removal — the list locks and d.mu were released before the fsync.
func TestSharedFsyncReadersNeverWait(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]BatchInsert, 4)
	for i := range seed {
		seed[i] = BatchInsert{List: 1, Element: el(fmt.Sprintf("g%d", i), float64(i), 0)}
	}
	if err := d.InsertBatch(seed); err != nil {
		t.Fatal(err)
	}
	h := holdFsync(d)
	removed := make(chan error, 1)
	go func() { removed <- d.Remove(1, []byte("g0"), nil) }()
	<-h.started
	res, err := d.Query(1, nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elements) != len(seed)-1 {
		t.Fatalf("query during the fsync saw %d elements, want %d", len(res.Elements), len(seed)-1)
	}
	// A second writer is not held up by the first one's fsync either:
	// its record is written while that fsync is in flight.
	inserted := make(chan error, 1)
	go func() { inserted <- d.Insert(1, el("late", 9, 0)) }()
	waitSeq(d, uint64(len(seed))+2)
	select {
	case err := <-removed:
		t.Fatalf("remove returned (%v) before its fsync finished", err)
	default:
	}
	close(h.release)
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFsyncFailureIsSticky: an fsync fails once, then the disk
// "works" again. The writer an earlier fsync covered gets nil; the one
// whose fsync failed and the one queued behind it both get the error —
// a later success proves nothing about pages the kernel may have
// dropped — and the store refuses mutations until a snapshot, which
// persists all three operations.
func TestSharedFsyncFailureIsSticky(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	h := holdFsync(d)
	errs := make([]chan error, 3)
	insert := func(w int) {
		errs[w] = make(chan error, 1)
		go func() { errs[w] <- d.Insert(1, el(fmt.Sprintf("w%d", w), float64(w), 0)) }()
	}
	insert(0)
	<-h.started
	insert(1)
	insert(2)
	waitSeq(d, 3)
	h.release <- nil // writer 0's fsync succeeds
	<-h.started
	h.release <- errors.New("injected: EIO")
	close(h.release) // every later fsync succeeds
	if err := <-errs[0]; err != nil {
		t.Fatalf("writer covered by a successful fsync: %v", err)
	}
	for w := 1; w <= 2; w++ {
		if err := <-errs[w]; err == nil || !strings.Contains(err.Error(), "EIO") {
			t.Fatalf("writer %d, not covered by any successful fsync: %v, want the fsync's error", w, err)
		}
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("%d fsyncs ran, want 2: a writer queued behind the failure must not retry it", n)
	}
	if err := d.Insert(1, el("refused", 9, 0)); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("mutation after a failed fsync: %v, want the poisoned refusal", err)
	}
	// The three operations are in memory and in the OS; the healing
	// snapshot is what makes them durable.
	if n := mustLen(t, d, 1); n != 3 {
		t.Fatalf("list holds %d elements, want 3", n)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, el("healed", 10, 0)); err != nil {
		t.Fatalf("insert after the healing snapshot: %v", err)
	}
	want := dump(t, d)
	d = reopen(t, d, Options{})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("state after heal + recovery differs")
	}
}

// TestSnapshotFsyncFailurePoisons: the kernel reports a failed fsync
// once, so when a snapshot's fsync of the log consumes the error, a
// writer's next fsync would succeed over pages that may be gone. The
// failure therefore poisons the store like a writer's own, and the
// next snapshot — which no longer depends on the log — heals it.
func TestSnapshotFsyncFailurePoisons(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Insert(1, el("ok", 1, 0)); err != nil {
		t.Fatal(err)
	}
	fail := true
	d.wal.syncFile = func() error {
		if fail {
			fail = false
			return errors.New("injected: EIO")
		}
		return nil
	}
	if err := d.Snapshot(); err == nil {
		t.Fatal("snapshot over a failing fsync succeeded")
	}
	if err := d.Insert(1, el("refused", 2, 0)); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("insert after the snapshot's failed fsync: %v, want the poisoned refusal", err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, el("healed", 3, 0)); err != nil {
		t.Fatalf("insert after the healing snapshot: %v", err)
	}
}

// TestSharedFsyncRacesSnapshotImportClose: writers waiting for their
// fsync race the three calls that make the log durable (or replace it)
// themselves. A writer that loses the race finds its sequence covered:
// it reports no error, and it does not fsync a file that was truncated
// or closed under it (which would fail, and poison the store). Nothing
// outlives Close — the store never started a goroutine.
func TestSharedFsyncRacesSnapshotImportClose(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: 64, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Fatalf("OpenDurable left %d goroutines running", n-goroutines)
	}
	const writers = 4
	stop := make(chan struct{})
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	run := func(phase string) {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					sealed := fmt.Sprintf("%s-w%d-%04d", phase, w, i)
					err := d.Insert(zerber.ListID(w), el(sealed, float64(i), 0))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					acked[w] = append(acked[w], sealed)
				}
			}(w)
		}
	}

	// Import: the writers' lists are replaced under them by an earlier
	// state of the same store, again and again.
	run("import")
	for i := 0; i < 8; i++ {
		waitSeq(d, d.written.Load()+16)
		data, _, err := d.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		waitSeq(d, d.written.Load()+16)
		if err := d.ImportSnapshot(data); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := d.Snapshot(); err != nil { // also fails if a writer poisoned the store
		t.Fatal(err)
	}

	// Snapshot and Close: from here every acknowledged insert must
	// survive, and Close lands while writers are mid-flight.
	for w := range acked {
		acked[w] = nil
	}
	base := dump(t, d)
	stop = make(chan struct{})
	run("close")
	for i := 0; i < 8; i++ {
		waitSeq(d, d.written.Load()+16)
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	waitSeq(d, d.written.Load()+16)
	dir := d.dir
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Fatalf("%d goroutines outlive Close", n-goroutines)
	}
	re, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := dump(t, re)
	for w, sealed := range acked {
		list := zerber.ListID(w)
		have := map[string]bool{}
		for _, e := range got[list] {
			have[string(e.Sealed)] = true
		}
		for _, s := range sealed {
			if !have[s] {
				t.Errorf("acknowledged insert %q did not survive Close", s)
			}
		}
		// An insert Close refused was never logged: what recovery holds
		// is exactly the state before this phase plus the acknowledged.
		if len(got[list]) != len(base[list])+len(sealed) {
			t.Errorf("list %d recovered %d elements, want %d + %d acknowledged", list, len(got[list]), len(base[list]), len(sealed))
		}
	}
}
