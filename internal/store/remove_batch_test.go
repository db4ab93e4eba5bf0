package store

// Tests for the batched remove: it is, observably, its operations as
// single Removes in slice order — same content, versions, commitments
// and recovery — except that it applies all of them or none and costs
// one WAL record.

import (
	"errors"
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

// assertSameCommitments checks two backends agree on every list's
// commitment: version, element count, content root and list root.
func assertSameCommitments(t *testing.T, want, got Backend) {
	t.Helper()
	for _, id := range mustLists(t, want) {
		w, err := want.Commitment(id)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Commitment(id)
		if err != nil {
			t.Fatal(err)
		}
		if w != g {
			t.Fatalf("list %d: commitment %+v, want %+v", id, g, w)
		}
	}
}

// removeDriver feeds one random stream of writes to a subject, which
// removes in batches, and to an oracle Memory, which removes the same
// victims one by one. live is the multiset of stored (list, payload)
// pairs the batches draw their victims from.
type removeDriver struct {
	t       *testing.T
	rng     *rand.Rand
	subject Backend
	oracle  *Memory
	live    []BatchRemove
	next    int
}

var removeDriverLists = []zerber.ListID{1, 2, 3, 9}

// insert stores a few elements in both backends: few distinct TRS
// values so ties are common, and payloads reused across groups and
// lists so one payload has several instances.
func (d *removeDriver) insert() {
	var batch []BatchInsert
	for n := 1 + d.rng.Intn(12); n > 0; n-- {
		p := d.next
		if d.next > 0 && d.rng.Intn(4) == 0 {
			p = d.rng.Intn(d.next)
		} else {
			d.next++
		}
		batch = append(batch, BatchInsert{
			List:    removeDriverLists[d.rng.Intn(len(removeDriverLists))],
			Element: el(fmt.Sprintf("p%04d", p), float64(d.rng.Intn(6))/2, d.rng.Intn(4)),
		})
	}
	for _, b := range []Backend{d.subject, d.oracle} {
		if err := b.InsertBatch(batch); err != nil {
			d.t.Fatal(err)
		}
	}
	for _, op := range batch {
		d.live = append(d.live, BatchRemove{List: op.List, Sealed: op.Element.Sealed})
	}
}

// read runs a plain read or audits a list (a proved read) on the
// subject only: neither is a mutation, so the oracle must not need it,
// and victims end up in plain and committed runs alike.
func (d *removeDriver) read() {
	list := removeDriverLists[d.rng.Intn(len(removeDriverLists))]
	allowed := map[int]bool{d.rng.Intn(4): true, d.rng.Intn(4): true}
	var err error
	if d.rng.Intn(2) == 0 {
		_, err = d.subject.Query(list, allowed, 0, 4)
	} else {
		_, err = d.subject.QueryProved(list, allowed, d.rng.Intn(3), 1+d.rng.Intn(5))
	}
	if err != nil && !errors.Is(err, ErrUnknownList) {
		d.t.Fatal(err)
	}
}

// remove takes up to n random victims out of live, removes them from
// the subject as one batch and from the oracle one by one.
func (d *removeDriver) remove(n int) (batch []BatchRemove) {
	for ; n > 0 && len(d.live) > 0; n-- {
		j := d.rng.Intn(len(d.live))
		batch = append(batch, d.live[j])
		d.live = append(d.live[:j], d.live[j+1:]...)
	}
	if err := d.subject.RemoveBatch(batch, nil); err != nil {
		d.t.Fatalf("RemoveBatch of %d stored elements: %v", len(batch), err)
	}
	for _, op := range batch {
		if err := d.oracle.Remove(op.List, op.Sealed, nil); err != nil {
			d.t.Fatalf("oracle Remove: %v", err)
		}
	}
	return batch
}

// rejected sends the subject a batch of stored victims with one bad
// operation spliced in, and checks it fails at that index having
// changed nothing.
func (d *removeDriver) rejected() {
	if len(d.live) == 0 {
		return
	}
	var batch []BatchRemove
	for n := d.rng.Intn(6); n > 0; n-- {
		batch = append(batch, d.live[d.rng.Intn(len(d.live))])
	}
	// Drawing with replacement may name an instance twice; keep only
	// what the lists hold, so the spliced op is the first to fail.
	held := make(map[string]int)
	for _, op := range d.live {
		held[fmt.Sprint(op.List, string(op.Sealed))]++
	}
	kept := batch[:0]
	for _, op := range batch {
		if k := fmt.Sprint(op.List, string(op.Sealed)); held[k] > 0 {
			held[k]--
			kept = append(kept, op)
		}
	}
	batch = kept
	at := d.rng.Intn(len(batch) + 1)
	bad, want := BatchRemove{List: d.live[0].List, Sealed: []byte("never stored")}, ErrNotFound
	switch d.rng.Intn(3) {
	case 0:
		bad, want = BatchRemove{List: 77, Sealed: []byte("p0000")}, ErrUnknownList
	case 1:
		if at > 0 {
			// An earlier op's payload, named once more than the list
			// holds it: the last op naming it is the one left short.
			bad = batch[d.rng.Intn(at)]
			for n := held[fmt.Sprint(bad.List, string(bad.Sealed))]; n > 0; n-- {
				batch = append(batch, bad)
			}
		}
	}
	batch = append(append(batch[:at:at], bad), batch[at:]...)
	for i, op := range batch {
		if op.List == bad.List && string(op.Sealed) == string(bad.Sealed) {
			at = i
		}
	}
	err := d.subject.RemoveBatch(batch, nil)
	var be *BatchOpError
	if !errors.As(err, &be) || be.Index != at || !errors.Is(err, want) {
		d.t.Fatalf("batch with a bad op at %d: err = %v, want %v there", at, err, want)
	}
}

// check holds the subject to the oracle.
func (d *removeDriver) check() {
	d.t.Helper()
	assertSameContent(d.t, d.oracle, d.subject)
	assertSameCommitments(d.t, d.oracle, d.subject)
}

// step runs one random operation and reports whether it was a batched
// remove, accepted or rejected. Only those are checked against the
// oracle, which is what a remove changes.
func (d *removeDriver) step() (removed bool) {
	switch r := d.rng.Intn(10); {
	case r < 4:
		d.insert()
		return false
	case r < 6:
		d.read()
		return false
	case r < 9:
		d.remove(1 + d.rng.Intn(20))
	default:
		d.rejected()
	}
	d.check()
	return true
}

func (d *removeDriver) run(steps int) {
	for ; steps > 0; steps-- {
		d.step()
	}
}

// TestRemoveBatchMatchesSingles: random batches — duplicates, victims
// in audited and unaudited groups, several lists — leave a Memory
// exactly where single Removes leave another: content, per-list
// version, commitment, and a commitment state (leaves, cached interior
// nodes) that still proves.
func TestRemoveBatchMatchesSingles(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		subject, oracle := NewMemory(), NewMemory()
		oracle.verBase = subject.verBase
		d := &removeDriver{t: t, rng: rng, subject: subject, oracle: oracle}
		for step := 0; step < 300; step++ {
			if !d.step() {
				continue
			}
			for _, id := range mustLists(t, subject) {
				// A cache kept past the lowest removed index of a group
				// would answer from leaves that have since shifted.
				checkCommitState(t, rng, subject.list(id, false), step)
				verifyProved(t, subject, id, nil, rng.Intn(4), 1+rng.Intn(8))
				verifyProved(t, subject, id, map[int]bool{rng.Intn(4): true, rng.Intn(4): true}, 0, 1+rng.Intn(8))
			}
		}
	}
}

// TestRemoveBatchAllowSeesVictims: allow is asked, in slice order,
// about exactly the instances the batch would delete — the rank-first
// one, then the next for a payload named again — and one veto leaves
// everything in place.
func TestRemoveBatchAllowSeesVictims(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, e := range []Element{el("x", 1, 5), el("dup", 3, 0), el("dup", 2, 1), el("dup", 2, 2)} {
				if err := b.Insert(4, e); err != nil {
					t.Fatal(err)
				}
			}
			ver := mustVersion(t, b, 4)
			var asked []int
			ops := []BatchRemove{{4, []byte("dup")}, {4, []byte("x")}, {4, []byte("dup")}, {4, []byte("dup")}}
			err := b.RemoveBatch(ops, func(g int) bool {
				asked = append(asked, g)
				return g != 2
			})
			var be *BatchOpError
			if !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, ErrDenied) {
				t.Fatalf("err = %v, want ErrDenied at op 3", err)
			}
			// Equal (TRS, payload) ties rank in insertion order: group 1
			// before group 2.
			if want := []int{0, 5, 1, 2}; !reflect.DeepEqual(asked, want) {
				t.Fatalf("allow saw groups %v, want %v", asked, want)
			}
			if mustLen(t, b, 4) != 4 || mustVersion(t, b, 4) != ver {
				t.Fatal("vetoed batch changed the list")
			}
			if err := b.RemoveBatch(ops, nil); err != nil {
				t.Fatal(err)
			}
			if mustLen(t, b, 4) != 0 || mustVersion(t, b, 4) != ver+4 {
				t.Fatalf("len %d, version +%d after a batch of 4", mustLen(t, b, 4), mustVersion(t, b, 4)-ver)
			}
			if err := b.Remove(4, []byte("dup"), nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Remove of a removed payload: %v", err)
			}
			var bare *BatchOpError
			if err := b.Remove(5, []byte("dup"), nil); !errors.Is(err, ErrUnknownList) || errors.As(err, &bare) {
				t.Fatalf("Remove on an unknown list: %v, want the bare sentinel", err)
			}
		})
	}
}

// TestRemoveBatchRecovery: a Durable fed batched removes recovers —
// from the WAL alone, and from a snapshot plus the WAL tail, with and
// without an fsync per batch — to what the oracle's single removes
// produced;
// each batch is one WAL record, expanded to per-element removes in the
// tail export.
func TestRemoveBatchRecovery(t *testing.T) {
	for _, opt := range []Options{
		{SnapshotEvery: -1},
		{SnapshotEvery: -1, FsyncEach: true},
	} {
		dur, err := OpenDurable(t.TempDir(), opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		oracle := NewMemory()
		oracle.verBase = dur.mem.verBase
		d := &removeDriver{t: t, rng: rand.New(rand.NewSource(22)), subject: dur, oracle: oracle}
		d.run(60)
		for len(d.live) < 8 {
			d.insert()
		}

		frames, logged := walFrames(t, dur.dir)
		seq := dur.Seq()
		victims := d.remove(8)
		if f, l := walFrames(t, dur.dir); f != frames+1 || l != logged+8 || dur.Seq() != seq+8 {
			t.Fatalf("a batch of 8 logged %d records carrying %d ops, seq +%d; want 1, 8, +8", f-frames, l-logged, dur.Seq()-seq)
		}
		tail, err := dur.TailSince(seq)
		if err != nil {
			t.Fatal(err)
		}
		if recs := tailRecords(t, tail); len(recs) != 1 || !recs[0].remove || !reflect.DeepEqual(recs[0].removes, victims) {
			t.Fatalf("tail: %+v, want one record removing %+v", recs, victims)
		}

		d.subject = reopen(t, dur, opt)
		d.check() // WAL only
		if err := d.subject.(*Durable).Snapshot(); err != nil {
			t.Fatal(err)
		}
		d.run(40)
		d.subject = reopen(t, d.subject.(*Durable), opt)
		d.check() // snapshot + tail
		for _, id := range mustLists(t, d.subject) {
			verifyProved(t, d.subject, id, nil, 0, 6)
		}
	}
}

// TestRemoveBatchTornRecord: a batched remove record torn anywhere at
// the tail of the log drops whole — no op of it is replayed.
func TestRemoveBatchTornRecord(t *testing.T) {
	base := t.TempDir()
	master := filepath.Join(base, "master")
	d, err := OpenDurable(master, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var victims []BatchRemove
	for i := 0; i < 12; i++ {
		e := el(fmt.Sprintf("payload-%02d", i), float64(i%4), i%3)
		if err := d.Insert(zerber.ListID(i%3), e); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			victims = append(victims, BatchRemove{List: zerber.ListID(i % 3), Sealed: e.Sealed})
		}
	}
	before := dump(t, d)
	beforeVer := mustVersion(t, d, 0)
	walSize := func() int64 {
		fi, err := os.Stat(filepath.Join(master, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	start := walSize()
	if err := d.RemoveBatch(victims, nil); err != nil {
		t.Fatal(err)
	}
	end := walSize()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(master, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := os.ReadFile(filepath.Join(master, epochFileName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := start; cut < end; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, epochFileName), epoch, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := dump(t, d); !reflect.DeepEqual(got, before) || mustVersion(t, d, 0) != beforeVer {
			t.Fatalf("cut at %d of [%d,%d): part of the torn batch was replayed", cut, start, end)
		}
		d.Close()
	}
}

// TestParentWrittenLogReplays: testdata/parent_wal.zwal was written by
// the commit before batched removes existed — single inserts, batched
// inserts and single remove records (kind 2), with the state that
// store held beside it. It must keep replaying to that state.
func TestParentWrittenLogReplays(t *testing.T) {
	dir := t.TempDir()
	for from, to := range map[string]string{"parent_wal.zwal": walFileName, "parent_epoch": epochFileName} {
		b, err := os.ReadFile(filepath.Join("testdata", from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_state.txt"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var sb strings.Builder
	fmt.Fprintf(&sb, "seq %d\n", d.Seq())
	for _, id := range mustLists(t, d) {
		cm, err := d.Commitment(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "list %d version %d elements %d content %x root %x\n", id, cm.Version, cm.Elements, cm.Content[:], cm.Root[:])
		for _, e := range dump(t, d)[id] {
			fmt.Fprintf(&sb, "  %g %d %s\n", e.TRS, e.Group, e.Sealed)
		}
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("replayed state differs from the state the log's writer held:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRemoveBatchOppositeListOrder: two goroutines race batches that
// name the same victims on the same lists in opposite order. List
// locks are taken in ascending ID whatever the batch's order, so they
// cannot deadlock; and a batch is one critical section, so exactly one
// of them removes every victim and the other removes none.
func TestRemoveBatchOppositeListOrder(t *testing.T) {
	const lists, rounds = 8, 100
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				shared := []byte(fmt.Sprintf("shared-%d", round))
				up := make([]BatchRemove, lists)
				down := make([]BatchRemove, lists)
				for l := 0; l < lists; l++ {
					if err := b.Insert(zerber.ListID(l), Element{Sealed: shared, TRS: float64(round % 5), Group: l % 3}); err != nil {
						t.Fatal(err)
					}
					up[l] = BatchRemove{List: zerber.ListID(l), Sealed: shared}
					down[lists-1-l] = up[l]
				}
				var wg sync.WaitGroup
				errs := make([]error, 2)
				for i, batch := range [][]BatchRemove{up, down} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = b.RemoveBatch(batch, nil)
					}()
				}
				wg.Wait()
				won := 0
				for _, err := range errs {
					switch {
					case err == nil:
						won++
					case !errors.Is(err, ErrNotFound):
						t.Fatalf("round %d: %v", round, err)
					}
				}
				if n := mustNumElements(t, b); won != 1 || n != 0 {
					t.Fatalf("round %d: %d batches applied, %d elements left; want 1 and 0", round, won, n)
				}
			}
		})
	}
}

// TestConcurrentBatchesRecover: writers insert and remove documents —
// batches over several shared lists — while a reader queries and
// audits and automatic snapshots compact the log under them, with and
// without an fsync per batch (under FsyncEach the snapshots race the
// writers waiting for theirs). Whatever order the store serialized
// them in, a restart must recover exactly the state it held: content,
// versions and commitments of every list.
func TestConcurrentBatchesRecover(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			concurrentBatchesRecover(t, Options{SnapshotEvery: 300, FsyncEach: fsync})
		})
	}
}

func concurrentBatchesRecover(t *testing.T, opt Options) {
	d, err := OpenDurable(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	const writers, docsEach, lists = 3, 150, 12
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-done:
				return
			default:
			}
			list := zerber.ListID(rng.Intn(lists))
			var err error
			if rng.Intn(4) == 0 {
				_, err = d.QueryProved(list, map[int]bool{rng.Intn(3): true, rng.Intn(3): true}, rng.Intn(4), 8)
			} else {
				_, err = d.Query(list, nil, rng.Intn(4), 8)
			}
			if err != nil && !errors.Is(err, ErrUnknownList) {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held [][]BatchRemove
			for n := 0; n < docsEach; n++ {
				var ins []BatchInsert
				var rem []BatchRemove
				for e := 0; e < 2+rng.Intn(10); e++ {
					list := zerber.ListID(rng.Intn(lists))
					sealed := []byte(fmt.Sprintf("w%d-d%03d-e%02d", w, n, e%7)) // e%7: some payloads twice
					ins = append(ins, BatchInsert{List: list, Element: Element{Sealed: sealed, TRS: float64(rng.Intn(5)), Group: rng.Intn(3)}})
					rem = append(rem, BatchRemove{List: list, Sealed: sealed})
				}
				if err := d.InsertBatch(ins); err != nil {
					t.Error(err)
					return
				}
				held = append(held, rem)
				if len(held) > 3 && rng.Intn(2) == 0 {
					j := rng.Intn(len(held))
					if err := d.RemoveBatch(held[j], nil); err != nil {
						t.Errorf("writer %d: removing a document it inserted: %v", w, err)
						return
					}
					held = append(held[:j], held[j+1:]...)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if err := d.LastSnapshotError(); err != nil {
		t.Fatal(err)
	}
	live := NewMemory()
	data, _, err := d.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.ImportSnapshot(data); err != nil {
		t.Fatal(err)
	}
	re := reopen(t, d, opt)
	assertSameContent(t, live, re)
	assertSameCommitments(t, live, re)
}
