package store

// Tests for the write path: batched WAL records, the log-then-apply
// ordering and the recovery contract, with and without an fsync per
// mutation (the shared fsync itself is fsync_test.go's).

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"zerberr/internal/zerber"
)

// walFrames reads a store's WAL file and returns how many framed
// records it holds and how many operations they carry (a batch record
// counts its elements). It fails on any framing damage — the file under
// test is expected whole.
func walFrames(t *testing.T, dir string) (frames, ops int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(walMagic)) {
		t.Fatal("WAL missing magic")
	}
	recs, err := readTail(data[len(walMagic):])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		ops += r.ops()
	}
	return len(recs), ops
}

// TestInsertBatchSingleWALRecord pins the batched write's log cost: a
// 1000-element InsertBatch emits exactly one framed WAL record, bumps
// the list's version once per element, lands in the tail export in
// order, and survives a restart byte-identically.
func TestInsertBatchSingleWALRecord(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// One plain insert first, to learn the instance's version epoch.
	if err := d.Insert(1, el("probe", 1, 0)); err != nil {
		t.Fatal(err)
	}
	base := mustVersion(t, d, 1) - 1

	const n = 1000
	ops := make([]BatchInsert, n)
	for i := range ops {
		ops[i] = BatchInsert{List: 7, Element: el(fmt.Sprintf("b%04d", i), float64(i%97), i%5)}
	}
	if err := d.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
	frames, logged := walFrames(t, d.dir)
	if frames != 2 { // the probe's record + one batch record
		t.Fatalf("probe + %d-element batch logged as %d WAL records, want 2", n, frames)
	}
	if logged != n+1 {
		t.Fatalf("WAL carries %d operations, want %d", logged, n+1)
	}
	if v := mustVersion(t, d, 7); v != base+n {
		t.Fatalf("batch of %d bumped version to base+%d, want one bump per element", n, v-base)
	}
	// The tail export must carry the batch as one record, in batch
	// order.
	tail, err := d.TailSince(1)
	if err != nil {
		t.Fatal(err)
	}
	if recs := tailRecords(t, tail); len(recs) != 1 || !reflect.DeepEqual(recs[0].inserts, ops) {
		t.Fatalf("tail after the probe: %d records, want the batch as one", len(recs))
	}
	want := dump(t, d)
	wantVer := mustVersion(t, d, 7)

	// Replay identity.
	d = reopen(t, d, Options{SnapshotEvery: -1})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("state after batched-WAL recovery differs")
	}
	if v := mustVersion(t, d, 7); v != wantVer {
		t.Fatalf("recovered version %d, want %d", v, wantVer)
	}
}

// TestInsertBatchChunksOversizedRecord: a batch whose encoding would
// blow the single-record bound is split across records, invisibly to
// the caller.
func TestInsertBatchChunksOversizedRecord(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 6<<20) // 6 MiB sealed payload
	for i := range big {
		big[i] = byte(i)
	}
	ops := make([]BatchInsert, 4)
	for i := range ops {
		ops[i] = BatchInsert{List: 3, Element: Element{Sealed: big, TRS: float64(i), Group: i}}
	}
	if err := d.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
	frames, logged := walFrames(t, d.dir)
	if frames < 2 {
		t.Fatalf("4×6MiB batch logged as %d records, expected chunking", frames)
	}
	if logged != len(ops) {
		t.Fatalf("WAL carries %d operations, want %d", logged, len(ops))
	}
	want := dump(t, d)
	d = reopen(t, d, Options{SnapshotEvery: -1})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("chunked batch did not survive recovery")
	}
}

// TestConcurrentAppendsTornTail crashes a store mid-write: concurrent
// writers sharing fsyncs interleave single and batched records in the
// log, which is then truncated at frame boundaries and mid-frame.
// Recovery must keep exactly the fully-framed records and drop the
// torn tail, never failing — the frame is the recovery unit.
func TestConcurrentAppendsTornTail(t *testing.T) {
	base := t.TempDir()
	master := filepath.Join(base, "master")
	d, err := OpenDurable(master, Options{SnapshotEvery: -1, FsyncEach: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := el(fmt.Sprintf("w%d-%d", w, i), float64(w*perWriter+i), w%3)
				if err := d.Insert(zerber.ListID(w%4), e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	batch := make([]BatchInsert, 6)
	for i := range batch {
		batch[i] = BatchInsert{List: 9, Element: el(fmt.Sprintf("batch-%d", i), float64(i), 1)}
	}
	if err := d.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	full := dump(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(master, walFileName))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries and per-frame op counts are the ground truth for
	// what any byte-level truncation must recover.
	type frame struct {
		end int64 // offset just past the frame
		ops int   // cumulative operations through this frame
	}
	var boundaries []frame
	fr := newFrames(walBytes[len(walMagic):])
	total := 0
	if err := fr.each(func(r record) {
		total += r.ops()
		boundaries = append(boundaries, frame{end: int64(len(walMagic) + fr.r.Offset()), ops: total})
	}); err != nil {
		t.Fatal(err)
	}
	if total != writers*perWriter+len(batch) {
		t.Fatalf("WAL carries %d ops, want %d", total, writers*perWriter+len(batch))
	}

	// Cut at every boundary, one byte past it (torn length prefix), and
	// mid-frame — the shapes a crash mid-write leaves behind.
	cuts := []int64{int64(len(walMagic))}
	prev := int64(len(walMagic))
	for _, f := range boundaries {
		cuts = append(cuts, f.end, f.end-1, prev+(f.end-prev)/2)
		prev = f.end
	}
	for _, cut := range cuts {
		if cut < int64(len(walMagic)) || cut > int64(len(walBytes)) {
			continue
		}
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		nd, err := OpenDurable(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantOps := 0
		for _, f := range boundaries {
			if f.end <= cut {
				wantOps = f.ops
			}
		}
		if got := mustNumElements(t, nd); got != wantOps {
			t.Fatalf("cut at %d: recovered %d ops, want the %d fully-framed ones", cut, got, wantOps)
		}
		// Everything recovered must be an element the full history
		// inserted (all ops here are inserts).
		for list, elems := range dump(t, nd) {
			wantList := make(map[string]bool, len(full[list]))
			for _, e := range full[list] {
				wantList[string(e.Sealed)] = true
			}
			for _, e := range elems {
				if !wantList[string(e.Sealed)] {
					t.Fatalf("cut at %d: recovered unknown element %q in list %d", cut, e.Sealed, list)
				}
			}
		}
		// Recovery leaves a consistent dir: a second open agrees.
		state := dump(t, nd)
		nd = reopen(t, nd, Options{})
		if !reflect.DeepEqual(dump(t, nd), state) {
			t.Fatalf("cut at %d: second recovery differs", cut)
		}
		nd.Close()
	}
}

// TestGroupCommitReplayEquivalence is the write-path property test:
// the same randomized history — singles, batches, removes — applied
// without an fsync per mutation and with one (the configuration whose
// writers commit as a group, by sharing fsyncs) must match a RAM-only
// reference before recovery and after it. Each durable is then
// reopened under the other configuration, pinning that the on-disk
// format carries no trace of how it was committed.
func TestGroupCommitReplayEquivalence(t *testing.T) {
	opts := []Options{
		{SnapshotEvery: -1},
		{SnapshotEvery: -1, FsyncEach: true},
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ref := NewMemory()
			ds := make([]*Durable, len(opts))
			for i, opt := range opts {
				var err error
				if ds[i], err = OpenDurable(t.TempDir(), opt); err != nil {
					t.Fatal(err)
				}
			}
			all := make([]Backend, 0, len(ds)+1)
			all = append(all, ref)
			for _, d := range ds {
				all = append(all, d)
			}
			type liveEl struct {
				list   zerber.ListID
				sealed string
			}
			var live []liveEl
			for op := 0; op < 150; op++ {
				switch {
				case len(live) > 0 && rng.Intn(4) == 0: // remove
					i := rng.Intn(len(live))
					victim := live[i]
					live = append(live[:i], live[i+1:]...)
					for _, b := range all {
						if err := b.Remove(victim.list, []byte(victim.sealed), nil); err != nil {
							t.Fatalf("op %d: remove: %v", op, err)
						}
					}
				case rng.Intn(4) == 0: // batch insert
					batch := make([]BatchInsert, 1+rng.Intn(16))
					for i := range batch {
						list := zerber.ListID(rng.Intn(5))
						sealed := fmt.Sprintf("b%04d-%d", op, i)
						batch[i] = BatchInsert{List: list, Element: el(sealed, float64(rng.Intn(100)), rng.Intn(4))}
						live = append(live, liveEl{list, sealed})
					}
					for _, b := range all {
						if err := b.InsertBatch(batch); err != nil {
							t.Fatalf("op %d: batch: %v", op, err)
						}
					}
				default: // single insert
					list := zerber.ListID(rng.Intn(5))
					sealed := fmt.Sprintf("s%04d", op)
					e := el(sealed, float64(rng.Intn(100)), rng.Intn(4))
					for _, b := range all {
						if err := b.Insert(list, e); err != nil {
							t.Fatalf("op %d: insert: %v", op, err)
						}
					}
					live = append(live, liveEl{list, sealed})
				}
			}
			want := dump(t, ref)
			for i, d := range ds {
				if got := dump(t, d); !reflect.DeepEqual(got, want) {
					t.Fatalf("durable[%d] diverged from reference before recovery", i)
				}
			}
			// Reopen each under the next configuration in the ring.
			for i := range ds {
				ds[i] = reopen(t, ds[i], opts[(i+1)%len(opts)])
				if got := dump(t, ds[i]); !reflect.DeepEqual(got, want) {
					t.Fatalf("durable[%d] diverged after cross-config recovery", i)
				}
			}
		})
	}
}

// TestFailedAppendNeverReachesMemory: in every configuration a
// mutation whose log write fails changes nothing a reader can observe —
// no element, no version, no commitment — because the record is written
// before memory is touched. The failure poisons the store (the next
// mutation is refused untouched too), a snapshot heals it, and a
// restart recovers the live state.
func TestFailedAppendNeverReachesMemory(t *testing.T) {
	mutations := map[string]func(d *Durable) error{
		"Insert": func(d *Durable) error { return d.Insert(1, el("new", 5, 0)) },
		"InsertBatch": func(d *Durable) error {
			return d.InsertBatch([]BatchInsert{{List: 1, Element: el("new-1", 5, 0)}, {List: 2, Element: el("new-2", 6, 1)}})
		},
		"RemoveBatch": func(d *Durable) error {
			return d.RemoveBatch([]BatchRemove{{List: 1, Sealed: []byte("a1")}, {List: 2, Sealed: []byte("b1")}}, nil)
		},
	}
	type listState struct {
		n          int
		version    uint64
		commitment Commitment
	}
	observe := func(t *testing.T, d *Durable) map[zerber.ListID]listState {
		t.Helper()
		out := map[zerber.ListID]listState{}
		for _, list := range []zerber.ListID{1, 2} {
			c, err := d.Commitment(list)
			if err != nil {
				t.Fatal(err)
			}
			out[list] = listState{mustLen(t, d, list), mustVersion(t, d, list), c}
		}
		return out
	}
	for _, fsync := range []bool{false, true} {
		for name, mutate := range mutations {
			t.Run(fmt.Sprintf("fsync=%v/%s", fsync, name), func(t *testing.T) {
				// The window is what every deployment still passes; it
				// selects nothing.
				d, err := OpenDurable(t.TempDir(), Options{FsyncEach: fsync, GroupCommitWindow: DefaultCommitWindow})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { d.Close() }()
				seed := []BatchInsert{
					{List: 1, Element: el("a1", 1, 0)}, {List: 1, Element: el("a2", 2, 1)},
					{List: 2, Element: el("b1", 1, 0)}, {List: 2, Element: el("b2", 2, 1)},
				}
				if err := d.InsertBatch(seed); err != nil {
					t.Fatal(err)
				}
				before := observe(t, d)
				// Sabotage the log as TestDurableWALPoisonAndHeal does: a
				// read-only handle, so the record's flush fails.
				realWAL := d.wal
				broken, err := os.Open(filepath.Join(d.dir, walFileName))
				if err != nil {
					t.Fatal(err)
				}
				d.wal = &wal{f: broken, bw: bufio.NewWriterSize(broken, 16)}
				if err := mutate(d); err == nil {
					t.Fatal("mutation over a broken WAL succeeded")
				}
				if got := observe(t, d); !reflect.DeepEqual(got, before) {
					t.Fatalf("failed append reached memory: lists went from %+v to %+v", before, got)
				}
				if err := mutate(d); err == nil || !strings.Contains(err.Error(), "poisoned") {
					t.Fatalf("next mutation: %v, want the poisoned refusal", err)
				}
				if got := observe(t, d); !reflect.DeepEqual(got, before) {
					t.Fatal("refused mutation reached memory")
				}
				broken.Close()
				d.wal = realWAL
				if err := d.Snapshot(); err != nil {
					t.Fatal(err)
				}
				if err := mutate(d); err != nil {
					t.Fatalf("mutation after the healing snapshot: %v", err)
				}
				want, wantState := dump(t, d), observe(t, d)
				d = reopen(t, d, Options{FsyncEach: fsync})
				if got := dump(t, d); !reflect.DeepEqual(got, want) {
					t.Fatal("state after heal + recovery differs")
				}
				if got := observe(t, d); !reflect.DeepEqual(got, wantState) {
					t.Fatalf("versions or commitments after recovery: %+v, want %+v", got, wantState)
				}
			})
		}
	}
}

// TestDurableLazyRecoveryStats pins the lazy fold-in contract: after a
// restart over a snapshot, every stats read — versions, lengths, list
// enumeration, totals — answers correctly from snapshot metadata
// without decoding a single untouched list, and the first query of a
// list materializes exactly that list.
func TestDurableLazyRecoveryStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const lists = 6
	for i := 0; i < 60; i++ {
		list := zerber.ListID(i % lists)
		if err := d.Insert(list, el(fmt.Sprintf("e%02d", i), float64(i), i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove(2, []byte("e02"), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A WAL tail past the snapshot: replay folds list 0 in eagerly,
	// the other lists must stay lazy.
	if err := d.Insert(0, el("tail-0", 99, 0)); err != nil {
		t.Fatal(err)
	}
	wantDump := dump(t, d)
	wantVers := make(map[zerber.ListID]uint64, lists)
	wantLens := make(map[zerber.ListID]int, lists)
	for i := zerber.ListID(0); i < lists; i++ {
		wantVers[i] = mustVersion(t, d, i)
		wantLens[i] = mustLen(t, d, i)
	}
	wantElems := mustNumElements(t, d)
	wantLists := mustNumLists(t, d)

	d = reopen(t, d, Options{SnapshotEvery: -1})
	// Stats first, before any query: they must come from metadata.
	if got := mustNumLists(t, d); got != wantLists {
		t.Fatalf("NumLists after recovery: %d, want %d", got, wantLists)
	}
	if got := mustNumElements(t, d); got != wantElems {
		t.Fatalf("NumElements after recovery: %d, want %d", got, wantElems)
	}
	for i := zerber.ListID(0); i < lists; i++ {
		if v := mustVersion(t, d, i); v != wantVers[i] {
			t.Fatalf("list %d version after recovery: %d, want %d", i, v, wantVers[i])
		}
		if n := mustLen(t, d, i); n != wantLens[i] {
			t.Fatalf("list %d len after recovery: %d, want %d", i, n, wantLens[i])
		}
	}
	// The stats reads above must not have materialized anything: only
	// list 0 (touched by WAL replay) is decoded.
	d.mem.mu.RLock()
	lazyLeft := len(d.mem.lazy)
	_, lazy5 := d.mem.lazy[5]
	d.mem.mu.RUnlock()
	if lazyLeft != lists-1 || !lazy5 {
		t.Fatalf("%d lists still lazy after stats reads, want %d (list 5 lazy: %v)", lazyLeft, lists-1, lazy5)
	}
	// First touch materializes; content is exact.
	res, err := d.Query(5, nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Elements) != wantLens[5] {
		t.Fatalf("first query of lazy list: %d elements, want %d", len(res.Elements), wantLens[5])
	}
	d.mem.mu.RLock()
	_, stillLazy := d.mem.lazy[5]
	d.mem.mu.RUnlock()
	if stillLazy {
		t.Fatal("queried list still lazy")
	}
	if got := dump(t, d); !reflect.DeepEqual(got, wantDump) {
		t.Fatal("lazily recovered state differs")
	}
}

// TestDurableLazyConcurrentFirstTouch hammers a freshly recovered
// store from many goroutines at once — the materialize-once path must
// hold up under the race detector and every reader must see the full
// list.
func TestDurableLazyConcurrentFirstTouch(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const perList = 40
	for i := 0; i < 4*perList; i++ {
		if err := d.Insert(zerber.ListID(i%4), el(fmt.Sprintf("c%03d", i), float64(i), i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d = reopen(t, d, Options{SnapshotEvery: -1})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := d.Query(zerber.ListID(w%4), nil, 0, perList)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Elements) != perList {
				t.Errorf("worker %d: %d elements, want %d", w, len(res.Elements), perList)
			}
		}(w)
	}
	wg.Wait()
}
