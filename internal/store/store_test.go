package store

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/zerber"
)

// backends returns a fresh instance of every Backend implementation so
// the contract tests run against each.
func backends(t *testing.T) map[string]Backend {
	t.Helper()
	d, err := OpenDurable(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	// The grouped instance fsyncs every mutation after its locks are
	// released, its concurrent writers sharing fsyncs, so the whole
	// contract suite doubles as a correctness suite for that path.
	g, err := OpenDurable(t.TempDir(), Options{FsyncEach: true})
	if err != nil {
		t.Fatalf("OpenDurable (grouped): %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return map[string]Backend{"memory": NewMemory(), "durable": d, "durable-grouped": g}
}

func el(payload string, trs float64, group int) Element {
	return Element{Sealed: []byte(payload), TRS: trs, Group: group}
}

// mustLen, mustLists, mustNumLists and mustNumElements unwrap the
// error-returning stats reads for tests running against live (never
// closed) backends.
func mustLen(t *testing.T, b Backend, id zerber.ListID) int {
	t.Helper()
	n, err := b.Len(id)
	if err != nil {
		t.Fatalf("Len(%d): %v", id, err)
	}
	return n
}

func mustLists(t *testing.T, b Backend) []zerber.ListID {
	t.Helper()
	ids, err := b.Lists()
	if err != nil {
		t.Fatalf("Lists: %v", err)
	}
	return ids
}

func mustNumLists(t *testing.T, b Backend) int {
	t.Helper()
	n, err := b.NumLists()
	if err != nil {
		t.Fatalf("NumLists: %v", err)
	}
	return n
}

func mustNumElements(t *testing.T, b Backend) int {
	t.Helper()
	n, err := b.NumElements()
	if err != nil {
		t.Fatalf("NumElements: %v", err)
	}
	return n
}

// dump extracts the full ranked state of a backend for comparison.
func dump(t *testing.T, b Backend) map[zerber.ListID][]Element {
	t.Helper()
	out := make(map[zerber.ListID][]Element)
	for _, id := range mustLists(t, b) {
		if err := b.View(id, func(elems []Element) {
			cp := make([]Element, len(elems))
			for i, e := range elems {
				cp[i] = Element{Sealed: append([]byte(nil), e.Sealed...), TRS: e.TRS, Group: e.Group}
			}
			out[id] = cp
		}); err != nil {
			t.Fatalf("View(%d): %v", id, err)
		}
	}
	return out
}

func TestBackendInsertViewRankOrder(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			ins := []Element{el("c", 1.0, 0), el("a", 3.0, 0), el("b", 2.0, 1), el("d", 3.0, 1)}
			for _, e := range ins {
				if err := b.Insert(7, e); err != nil {
					t.Fatalf("Insert: %v", err)
				}
			}
			var got []string
			if err := b.View(7, func(elems []Element) {
				for _, e := range elems {
					got = append(got, string(e.Sealed))
				}
			}); err != nil {
				t.Fatalf("View: %v", err)
			}
			// Descending TRS; the 3.0 tie breaks on sealed bytes.
			want := []string{"a", "d", "b", "c"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rank order %v, want %v", got, want)
			}
			if mustLen(t, b, 7) != 4 || mustNumLists(t, b) != 1 || mustNumElements(t, b) != 4 {
				t.Fatalf("Len=%d NumLists=%d NumElements=%d", mustLen(t, b, 7), mustNumLists(t, b), mustNumElements(t, b))
			}
		})
	}
}

func TestBackendRemove(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Insert(1, el("x", 1, 5)); err != nil {
				t.Fatal(err)
			}
			if err := b.Remove(9, []byte("x"), nil); !errors.Is(err, ErrUnknownList) {
				t.Fatalf("unknown list: %v", err)
			}
			if err := b.Remove(1, []byte("nope"), nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("not found: %v", err)
			}
			denied := -1
			if err := b.Remove(1, []byte("x"), func(g int) bool { denied = g; return false }); !errors.Is(err, ErrDenied) {
				t.Fatalf("denied: %v", err)
			}
			if denied != 5 {
				t.Fatalf("allow saw group %d, want 5", denied)
			}
			if mustLen(t, b, 1) != 1 {
				t.Fatal("denied remove must not delete")
			}
			if err := b.Remove(1, []byte("x"), func(g int) bool { return g == 5 }); err != nil {
				t.Fatalf("allowed remove: %v", err)
			}
			// The emptied list stays known (seed server semantics: a
			// query gets an empty exhausted view, not unknown-list).
			if mustNumLists(t, b) != 1 || mustLen(t, b, 1) != 0 {
				t.Fatalf("after remove: NumLists=%d Len=%d", mustNumLists(t, b), mustLen(t, b, 1))
			}
			viewed := false
			if err := b.View(1, func(elems []Element) { viewed = len(elems) == 0 }); err != nil || !viewed {
				t.Fatalf("View of emptied list: err=%v sawEmpty=%v", err, viewed)
			}
		})
	}
}

func TestBackendLists(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, id := range []zerber.ListID{9, 2, 5} {
				if err := b.Insert(id, el(fmt.Sprintf("p%d", id), 1, 0)); err != nil {
					t.Fatal(err)
				}
			}
			want := []zerber.ListID{2, 5, 9}
			if got := mustLists(t, b); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lists() = %v, want %v", got, want)
			}
		})
	}
}

func TestBackendConcurrentAccess(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 8)
			for w := 0; w < 4; w++ {
				go func(w int) {
					for i := 0; i < 50; i++ {
						if err := b.Insert(zerber.ListID(w%2), el(fmt.Sprintf("w%d-%d", w, i), float64(i), 0)); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(w)
				go func() {
					for i := 0; i < 50; i++ {
						_ = b.View(0, func([]Element) {})
						_, _ = b.NumElements()
					}
					done <- nil
				}()
			}
			for i := 0; i < 8; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if n := mustNumElements(t, b); n != 200 {
				t.Fatalf("NumElements = %d, want 200", n)
			}
		})
	}
}

// TestReadsNeverTakeTheWriteLock: an insert lands at its rank, so a
// read has nothing to fold — Query, View and ExportSnapshot answer
// while another reader holds the list's read lock, on groups written
// since the last read as much as on any other. A read that took the
// write lock would wait for the holder to let go.
func TestReadsNeverTakeTheWriteLock(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			mem, _ := b.(*Memory)
			if d, ok := b.(*Durable); ok {
				mem = d.mem
			}
			const list = zerber.ListID(3)
			var ops []BatchInsert
			for i := range 24 {
				ops = append(ops, BatchInsert{List: list, Element: el(fmt.Sprintf("r%02d", i), float64(i%5), i%4)})
			}
			if err := b.InsertBatch(ops[:12]); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Query(list, nil, 0, 1); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[12:] {
				if err := b.Insert(op.List, op.Element); err != nil {
					t.Fatal(err)
				}
			}
			ml := mem.list(list, false)
			ml.mu.RLock()
			done := make(chan error, 1)
			go func() {
				_, err := b.Query(list, map[int]bool{1: true, 2: true}, 0, 5)
				if err == nil {
					err = b.View(list, func([]Element) {})
				}
				if err == nil {
					_, _, err = b.ExportSnapshot()
				}
				done <- err
			}()
			select {
			case err := <-done:
				ml.mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				ml.mu.RUnlock()
				<-done
				t.Fatal("a read waited for the list's write lock while a reader held the read lock")
			}
		})
	}
}
