package store

// Tests for the verifiable-read path: QueryProved windows verify under
// proof.VerifyWindow, match plain Query element-for-element, survive
// mutations incrementally, and commitments persist through snapshots
// and recovery.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// provedFixture loads a three-group list into a backend.
func provedFixture(t testing.TB, b Backend, list zerber.ListID) {
	t.Helper()
	els := []Element{
		el("a1", 9.5, 1), el("a2", 7.0, 1), el("a3", 4.0, 1), el("a4", 2.0, 1),
		el("b1", 8.0, 2), el("b2", 3.0, 2),
		el("c1", 9.0, 3), el("c2", 6.0, 3), el("c3", 5.0, 3), el("c4", 0.5, 3),
	}
	for _, e := range els {
		if err := b.Insert(list, e); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

// verifyProved runs both Query and QueryProved for one window, checks
// they agree exactly, and verifies the proof.
func verifyProved(t *testing.T, b Backend, list zerber.ListID, allowed map[int]bool, offset, count int) {
	t.Helper()
	plain, err := b.Query(list, allowed, offset, count)
	if err != nil {
		t.Fatalf("Query(%d,%d): %v", offset, count, err)
	}
	proved, err := b.QueryProved(list, allowed, offset, count)
	if err != nil {
		t.Fatalf("QueryProved(%d,%d): %v", offset, count, err)
	}
	if plain.Proof != nil {
		t.Fatal("plain Query carried a proof")
	}
	if proved.Proof == nil {
		t.Fatal("QueryProved carried no proof")
	}
	if !reflect.DeepEqual(plain.Elements, proved.Elements) ||
		plain.Exhausted != proved.Exhausted || plain.Version != proved.Version {
		t.Fatalf("proved window differs from plain:\nplain  %+v\nproved %+v", plain, proved)
	}
	elems := proved.Elements
	if err := proof.VerifyWindow(proved.Proof, allowed, offset, count, elems, proved.Exhausted, proved.Version); err != nil {
		t.Fatalf("VerifyWindow(%v,%d,%d): %v", allowed, offset, count, err)
	}
}

func TestQueryProvedContract(t *testing.T) {
	views := []map[int]bool{
		nil,
		{1: true, 3: true},
		{2: true},
		{1: true},
		{4: true}, // no visible elements at all
	}
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			provedFixture(t, b, 1)
			for _, allowed := range views {
				for _, q := range []struct{ offset, count int }{
					{0, 3}, {0, 100}, {2, 4}, {5, 5}, {9, 3}, {15, 2}, {0, 1},
				} {
					verifyProved(t, b, 1, allowed, q.offset, q.count)
				}
			}
			if _, err := b.QueryProved(99, nil, 0, 1); err != ErrUnknownList {
				t.Errorf("unknown list: got %v", err)
			}
			if _, err := b.Commitment(99); err != ErrUnknownList {
				t.Errorf("unknown list commitment: got %v", err)
			}
		})
	}
}

// TestQueryProvedIncremental checks the commitment is maintained, not
// rebuilt wholesale: after the first proved read hashes the buckets,
// inserts and removals keep later proofs valid and move the root.
func TestQueryProvedIncremental(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			provedFixture(t, b, 1)
			allowed := map[int]bool{1: true, 2: true, 3: true}
			verifyProved(t, b, 1, allowed, 0, 4)
			c0, err := b.Commitment(1)
			if err != nil {
				t.Fatal(err)
			}

			if err := b.Insert(1, el("a0", 11.0, 1)); err != nil {
				t.Fatal(err)
			}
			verifyProved(t, b, 1, allowed, 0, 4)
			c1, err := b.Commitment(1)
			if err != nil {
				t.Fatal(err)
			}
			if c1.Root == c0.Root || c1.Content == c0.Content || c1.Version == c0.Version {
				t.Error("insert did not move the commitment")
			}
			if c1.Elements != c0.Elements+1 {
				t.Errorf("element count %d, want %d", c1.Elements, c0.Elements+1)
			}

			if err := b.Remove(1, []byte("b1"), nil); err != nil {
				t.Fatal(err)
			}
			verifyProved(t, b, 1, allowed, 0, 100)
			verifyProved(t, b, 1, map[int]bool{2: true}, 0, 100)
			c2, err := b.Commitment(1)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Root == c1.Root || c2.Elements != c1.Elements-1 {
				t.Error("removal did not move the commitment")
			}

			// Removing a group's last element must drop its header from
			// the content root entirely.
			if err := b.Remove(1, []byte("b2"), nil); err != nil {
				t.Fatal(err)
			}
			verifyProved(t, b, 1, allowed, 0, 100)
			res, err := b.QueryProved(1, allowed, 0, 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, gw := range res.Proof.Groups {
				if gw.Group == 2 {
					t.Error("emptied group still committed")
				}
			}
		})
	}
}

// TestCommitmentMigrationIdentity: two instances holding identical
// elements under different mutation histories share the content root
// but not the version-bound list root — the property migration's
// cut-over identity check rests on.
func TestCommitmentMigrationIdentity(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	provedFixture(t, a, 1)
	// Same elements, different insert order plus a remove — different
	// version trails, same final content.
	for _, e := range []Element{
		el("c4", 0.5, 3), el("b2", 3.0, 2), el("a4", 2.0, 1), el("zz", 1.0, 9),
		el("c3", 5.0, 3), el("a3", 4.0, 1), el("b1", 8.0, 2), el("c2", 6.0, 3),
		el("a2", 7.0, 1), el("c1", 9.0, 3), el("a1", 9.5, 1),
	} {
		if err := b.Insert(1, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(1, []byte("zz"), nil); err != nil {
		t.Fatal(err)
	}
	ca, err := a.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Content != cb.Content {
		t.Error("identical content, different content roots")
	}
	if ca.Version == cb.Version {
		t.Fatal("test premise broken: versions collided")
	}
	if ca.Root == cb.Root {
		t.Error("different versions, same list root")
	}
}

// TestCommitmentSurvivesRecovery: the commitment is a function of the
// content, so an audited list recovered from a snapshot (ZSNAP3, which
// holds no hashes) hashes its buckets on first touch to the same content
// root and list root, and proofs keep verifying.
func TestCommitmentSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	provedFixture(t, d, 1)
	allowed := map[int]bool{1: true, 2: true, 3: true}
	verifyProved(t, d, 1, allowed, 1, 4)
	before, err := d.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	after, err := d2.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Content != before.Content {
		t.Errorf("content root moved across recovery: %s -> %s", before.Content, after.Content)
	}
	if after.Version != before.Version {
		t.Errorf("version moved across recovery: %d -> %d", before.Version, after.Version)
	}
	if after.Root != before.Root {
		t.Error("list root moved across recovery")
	}
	verifyProved(t, d2, 1, allowed, 0, 100)
	verifyProved(t, d2, 1, map[int]bool{3: true}, 2, 2)

	// Mutations after recovery keep the recovered commitment consistent.
	if err := d2.Insert(1, el("post", 5.5, 2)); err != nil {
		t.Fatal(err)
	}
	verifyProved(t, d2, 1, allowed, 0, 100)
}

// TestSnapshotWithoutLeaves: a list nobody ever audited snapshots
// without hashing anything, recovers fine, and its first proved read
// after recovery builds the commitment from scratch.
func TestSnapshotWithoutLeaves(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	provedFixture(t, d, 1)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	verifyProved(t, d2, 1, map[int]bool{1: true, 2: true, 3: true}, 0, 100)
}

// TestProvedWindowStableUnderConcurrentReads: proofs built under the
// write lock verify against the exact version they were read at even
// while writers interleave — inserts that merge into the committed
// runs, removes that splice them, and plain reads beside them, so the
// interior-node cache is truncated and re-extended from every side
// while it is being read (run under -race).
func TestProvedWindowStableUnderConcurrentReads(t *testing.T) {
	m := NewMemory()
	provedFixture(t, m, 1)
	allowed := map[int]bool{1: true, 2: true, 3: true}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			m.Insert(1, el(fmt.Sprintf("w%03d", i), float64(i%17), 1+i%3))
			if i%3 == 2 {
				if err := m.Remove(1, []byte(fmt.Sprintf("w%03d", i-2)), nil); err != nil {
					t.Errorf("Remove: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, err := m.Query(1, map[int]bool{1 + i%3: true}, 0, 8); err != nil {
				t.Errorf("Query: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 150; i++ {
		res, err := m.QueryProved(1, allowed, i%5, 4)
		if err != nil {
			t.Fatal(err)
		}
		elems := res.Elements
		if err := proof.VerifyWindow(res.Proof, allowed, i%5, 4, elems, res.Exhausted, res.Version); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	wg.Wait()
}
