package store

// Snapshot-transfer and WAL-tail tests: the storage contract live
// shard migration rests on. Export→import must reproduce content AND
// per-list versions bit-identically (version-keyed caches must stay
// coherent across a move), and TailSince must hand over exactly the
// operations logged after the exported sequence.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zerberr/internal/zerber"
)

func seedBackend(t *testing.T, b Backend, lists, perList int) {
	t.Helper()
	for l := 0; l < lists; l++ {
		for i := 0; i < perList; i++ {
			el := Element{
				Sealed: []byte(fmt.Sprintf("list%d-el%d", l, i)),
				TRS:    float64(i%7) * 0.125,
				Group:  i % 3,
			}
			if err := b.Insert(zerber.ListID(l), el); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertSameContent checks dst holds exactly src's lists, elements (in
// rank order) and versions.
func assertSameContent(t *testing.T, src, dst Backend) {
	t.Helper()
	assertSameContentWhere(t, src, dst, func(zerber.ListID) bool { return true })
}

// assertSameContentWhere is assertSameContent with version equality
// limited to lists satisfying checkVersion: lists minted fresh on both
// sides after a snapshot transfer carry each instance's own random
// epoch (content identical, counters intentionally disjoint).
func assertSameContentWhere(t *testing.T, src, dst Backend, checkVersion func(zerber.ListID) bool) {
	t.Helper()
	srcLists, err := src.Lists()
	if err != nil {
		t.Fatal(err)
	}
	dstLists, err := dst.Lists()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srcLists, dstLists) {
		t.Fatalf("lists diverge: %v vs %v", srcLists, dstLists)
	}
	for _, id := range srcLists {
		sv, err := src.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		dv, err := dst.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		if sv != dv && checkVersion(id) {
			t.Fatalf("list %d: version %d vs %d", id, sv, dv)
		}
		var want, got []Element
		if err := src.View(id, func(e []Element) { want = append([]Element(nil), e...) }); err != nil {
			t.Fatal(err)
		}
		if err := dst.View(id, func(e []Element) { got = append([]Element(nil), e...) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("list %d: content diverges (%d vs %d elements)", id, len(want), len(got))
		}
	}
}

func TestSnapshotExportImportRoundTrip(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) Backend{
		"memory": func(t *testing.T) Backend { return NewMemory() },
		"durable": func(t *testing.T) Backend {
			d, err := OpenDurable(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			src := mk(t)
			seedBackend(t, src, 4, 25)
			// A removal so versions are not simply element counts.
			if err := src.Remove(1, []byte("list1-el3"), nil); err != nil {
				t.Fatal(err)
			}
			data, _, err := src.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			dst := mk(t)
			seedBackend(t, dst, 2, 5) // pre-import content must vanish
			if err := dst.ImportSnapshot(data); err != nil {
				t.Fatal(err)
			}
			assertSameContent(t, src, dst)
			// Writes after the import keep versions in lockstep, since
			// the imported counters continue from the source's values.
			el := Element{Sealed: []byte("post-import"), TRS: 0.5, Group: 0}
			if err := src.Insert(2, el); err != nil {
				t.Fatal(err)
			}
			if err := dst.Insert(2, el); err != nil {
				t.Fatal(err)
			}
			assertSameContent(t, src, dst)
		})
	}
}

func TestDurableImportPersists(t *testing.T) {
	src, err := OpenDurable(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	seedBackend(t, src, 3, 10)
	data, _, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dst, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedBackend(t, dst, 1, 4)
	if err := dst.ImportSnapshot(data); err != nil {
		t.Fatal(err)
	}
	// A write after the import must survive the reopen too (the WAL
	// restarted empty at the import's sequence).
	if err := dst.Insert(7, Element{Sealed: []byte("tail-write"), TRS: 1, Group: 0}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameContent(t, src, mustWithout(t, re, 7))
	if n, _ := re.Len(7); n != 1 {
		t.Fatalf("post-import write lost across reopen: len=%d", n)
	}
}

// mustWithout views the backend minus one list, so recovered state can
// be compared against a source that never held it.
func mustWithout(t *testing.T, b Backend, drop zerber.ListID) Backend {
	t.Helper()
	m := NewMemory()
	lists, err := b.Lists()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range lists {
		if id == drop {
			continue
		}
		v, err := b.Version(id)
		if err != nil {
			t.Fatal(err)
		}
		var ops []BatchInsert
		if err := b.View(id, func(e []Element) {
			for _, el := range e {
				ops = append(ops, BatchInsert{List: id, Element: el})
			}
		}); err != nil {
			t.Fatal(err)
		}
		ml := m.list(id, true) // an emptied list stays present
		if err := m.InsertBatch(ops); err != nil {
			t.Fatal(err)
		}
		ml.version = v
	}
	return m
}

func TestDurableTailSince(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seedBackend(t, d, 2, 5)
	cut := d.Seq()
	if ops, err := d.TailSince(cut); err != nil || len(ops) != 0 {
		t.Fatalf("tail at head: %v ops, err=%v", len(ops), err)
	}
	// Three more operations: two inserts and a remove.
	if err := d.Insert(9, Element{Sealed: []byte("a"), TRS: 0.25, Group: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(9, Element{Sealed: []byte("b"), TRS: 0.75, Group: 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove(0, []byte("list0-el0"), nil); err != nil {
		t.Fatal(err)
	}
	tail, err := d.TailSince(cut)
	if err != nil {
		t.Fatal(err)
	}
	// Each single operation is a batch of one, logged as its own record.
	want := []record{
		{seq: cut + 1, inserts: []BatchInsert{{List: 9, Element: Element{Sealed: []byte("a"), TRS: 0.25, Group: 1}}}},
		{seq: cut + 2, inserts: []BatchInsert{{List: 9, Element: Element{Sealed: []byte("b"), TRS: 0.75, Group: 2}}}},
		{seq: cut + 3, remove: true, removes: []BatchRemove{{List: 0, Sealed: []byte("list0-el0")}}},
	}
	if got := tailRecords(t, tail); !reflect.DeepEqual(got, want) {
		t.Fatalf("tail = %+v, want %+v", got, want)
	}
	// The whole tail is the log's own bytes after its magic.
	whole, err := d.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if log, err := os.ReadFile(filepath.Join(d.dir, walFileName)); err != nil || !bytes.Equal(whole, log[len(walMagic):]) {
		t.Fatalf("TailSince(0) is not the log's records (err %v)", err)
	}
	// Replaying the tail onto a snapshot taken at the cut reproduces
	// the live state exactly — the migration invariant.
	// (Snapshot-at-cut was not kept; re-derive by import+replay onto a
	// fresh memory of the current export minus the tail is circular, so
	// just assert compaction invalidates old cuts instead.)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.TailSince(cut); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("tail across a compaction: err=%v, want ErrTailTruncated", err)
	}
	if ops, err := d.TailSince(d.Seq()); err != nil || len(ops) != 0 {
		t.Fatalf("tail at compacted head: %v ops, err=%v", len(ops), err)
	}
}

// TestSnapshotTailReplayIdentity: a snapshot import plus the tail
// after its sequence reproduces the source — with the writes after the
// export, and with writes that land while the export's encode is paused
// between two lists, on lists it has written, lists it has not reached
// and a list it never saw.
func TestSnapshotTailReplayIdentity(t *testing.T) {
	for name, c := range map[string]struct {
		lists, pauseAt int
		during, after  func(t *testing.T, d *Durable)
		exported       func(id zerber.ListID) bool
	}{
		"writes after the export": {
			lists: 3, pauseAt: 1,
			during: func(*testing.T, *Durable) {},
			after: func(t *testing.T, d *Durable) {
				seedBackend(t, d, 5, 3)
				if err := d.Remove(2, []byte("list2-el1"), nil); err != nil {
					t.Fatal(err)
				}
			},
			// Lists 3 and 4 were minted after the export, so each side
			// seeds them with its own random epoch (content still
			// identical).
			exported: func(id zerber.ListID) bool { return id < 3 },
		},
		"writes during the encode": {
			lists: 7, pauseAt: 3,
			during:   func(t *testing.T, d *Durable) { writesDuringEncode(t, d) },
			after:    func(t *testing.T, d *Durable) { seedBackend(t, d, 2, 3) },
			exported: func(id zerber.ListID) bool { return id != 99 },
		},
	} {
		t.Run(name, func(t *testing.T) {
			d, err := OpenDurable(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			seedBackend(t, d, c.lists, 8)
			paused, resume := pauseEncode(d, c.pauseAt)
			type export struct {
				data []byte
				seq  uint64
				err  error
			}
			done := make(chan export, 1)
			go func() {
				data, seq, err := d.ExportSnapshot()
				done <- export{data, seq, err}
			}()
			<-paused
			c.during(t, d)
			resume()
			exp := <-done
			if exp.err != nil {
				t.Fatal(exp.err)
			}
			c.after(t, d)
			tail, err := d.TailSince(exp.seq)
			if err != nil {
				t.Fatal(err)
			}
			dst := NewMemory()
			if err := dst.ImportSnapshot(exp.data); err != nil {
				t.Fatal(err)
			}
			n, err := ApplyTail(dst, tail)
			if err != nil || uint64(n) != d.Seq()-exp.seq {
				t.Fatalf("ApplyTail: %d ops, %v; want %d", n, err, d.Seq()-exp.seq)
			}
			// Versions carry over exactly for every list the snapshot held.
			assertSameContentWhere(t, d, dst, c.exported)
		})
	}
}

// tailRecords decodes a tail (TailSince's bytes) into its records.
func tailRecords(t testing.TB, tail []byte) []record {
	t.Helper()
	recs, err := readTail(tail)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestMemoryTailUnsupported(t *testing.T) {
	if _, err := NewMemory().TailSince(0); !errors.Is(err, ErrNoTail) {
		t.Fatalf("err=%v, want ErrNoTail", err)
	}
}

func TestImportRejectsCorruptSnapshot(t *testing.T) {
	m := NewMemory()
	seedBackend(t, m, 1, 3)
	data, _, err := m.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	dst := NewMemory()
	seedBackend(t, dst, 1, 2)
	if err := dst.ImportSnapshot(data); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err=%v, want ErrBadSnapshot", err)
	}
	// The failed import must leave the destination untouched.
	if n, _ := dst.NumElements(); n != 2 {
		t.Fatalf("failed import mutated the store: %d elements", n)
	}
}
