package store

// Tests for the snapshot that does not stop the writers: the encoder's
// bytes, writers that never wait out an encode, and every crash point
// of a snapshot. The pauses go through Durable.snapPause and wait on
// events, never on the clock; a deadline only bounds a failing run.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zerberr/internal/zerber"
)

// snapshotFixture is a store whose dump takes every shape an entry can:
// lists of one group and of several, rank ties broken by payload and by
// insertion order, an empty payload, an emptied group, an emptied list,
// and audited lists (every group, or all but one added after the audit)
// beside lists nobody audited, which encode alike. Its versions are
// fixed.
func snapshotFixture(t testing.TB) *Memory {
	t.Helper()
	m := NewMemory()
	m.verBase = 7 << 32
	var ops []BatchInsert
	for l := 0; l < 6; l++ {
		for i := 0; i < 40; i++ {
			e := el(fmt.Sprintf("l%d-%02d", l, i%31), float64(i%5)/4, (i*(l+1))%3)
			ops = append(ops, BatchInsert{List: zerber.ListID(l), Element: e})
		}
	}
	ops = append(ops, BatchInsert{List: 0, Element: el("", 0.5, 1)})
	if err := m.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
	for _, id := range []zerber.ListID{1, 2, 3, 4} {
		if _, err := m.Commitment(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Insert(2, el("joins-after-the-audit", 0.3, 7)); err != nil {
		t.Fatal(err)
	}
	var emptied, lost []BatchRemove
	for _, op := range ops {
		switch {
		case op.List == 4:
			emptied = append(emptied, BatchRemove{List: 4, Sealed: op.Element.Sealed})
		case op.List == 5 && op.Element.Group == 0:
			lost = append(lost, BatchRemove{List: 5, Sealed: op.Element.Sealed})
		}
	}
	if err := m.RemoveBatch(append(emptied, lost...), nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotBytesUnchanged: the encoder writes the bytes it wrote
// when it stopped writing leaf blocks — before, the fixture's audited
// lists carried one. The two digests were taken then on the same
// fixture: a store of live lists, and the same store decoded — its
// lists lazy — with one list read and one written since. A decoded
// store that nobody touched re-encodes to exactly the dump it came
// from.
func TestSnapshotBytesUnchanged(t *testing.T) {
	const (
		liveDigest = "8134540e71e2dddce76847c77236a4e7634050e9f7efd39bd98d0cd6c16ce2d0"
		lazyDigest = "1847a04dd8473b1df4202b393fb56426eaba550bf297a86fae2b439c3818cbd9"
	)
	live := encodeToBytes(t, 42, snapshotFixture(t))
	if got := sha256.Sum256(live); hex.EncodeToString(got[:]) != liveDigest {
		t.Errorf("dump of live lists: sha256 %x, want %s", got, liveDigest)
	}
	_, decoded, err := decodeSnapshot(live)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeToBytes(t, 42, decoded); !bytes.Equal(again, live) {
		t.Fatalf("an untouched decoded store re-encodes to %d bytes, not its %d-byte dump", len(again), len(live))
	}
	if _, err := decoded.Query(0, nil, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := decoded.Insert(1, el("after-the-load", 0.9, 2)); err != nil {
		t.Fatal(err)
	}
	decoded.mu.RLock()
	lazy := len(decoded.lazy)
	decoded.mu.RUnlock()
	if lazy != 4 {
		t.Fatalf("%d lists lazy, want 4", lazy)
	}
	if got := sha256.Sum256(encodeToBytes(t, 43, decoded)); hex.EncodeToString(got[:]) != lazyDigest {
		t.Errorf("dump of a partly lazy store: sha256 %x, want %s", got, lazyDigest)
	}
}

// returnsSoon fails the test unless fn returns nil before the deadline,
// which only bounds a failing run.
func returnsSoon(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return while a snapshot encode was paused", what)
	}
}

// pauseEncode makes d's next snapshot stop before it writes list number
// at, and returns a channel that is ready once it has stopped, and the
// function that lets it go on.
func pauseEncode(d *Durable, at int) (paused <-chan struct{}, resume func()) {
	p, r := make(chan struct{}), make(chan struct{})
	d.snapPause = func(step snapStep, lists int) {
		if step == snapEncoding && lists == at {
			close(p)
			<-r
		}
	}
	return p, func() { close(r) }
}

// writesDuringEncode are the writes a test makes while an encode of
// lists 0–6 is paused after list 2: inserts into a list already
// encoded, one not yet encoded and a brand-new one, and removes from an
// encoded list and from one not yet encoded.
func writesDuringEncode(t *testing.T, b Backend) {
	t.Helper()
	returnsSoon(t, "InsertBatch", func() error {
		return b.InsertBatch([]BatchInsert{
			{List: 1, Element: el("late-1", 0.7, 0)},
			{List: 5, Element: el("late-5", 0.7, 1)},
			{List: 99, Element: el("late-99", 0.7, 2)},
		})
	})
	returnsSoon(t, "RemoveBatch", func() error {
		return b.RemoveBatch([]BatchRemove{{List: 2, Sealed: []byte("list2-el3")}, {List: 6, Sealed: []byte("list6-el4")}}, nil)
	})
}

// TestSnapshotWritersNeverWait: while a snapshot's encode is paused
// between two lists, inserts and removes return on lists it has written,
// on lists it has not reached and on a list it has never seen. The
// snapshot holds exactly the state at its sequence, to the byte: the
// dump a Memory fed the operations up to it writes. A reopen yields the
// whole history.
func TestSnapshotWritersNeverWait(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	oracle := NewMemory()
	oracle.verBase = d.mem.verBase
	for _, b := range []Backend{d, oracle} {
		seedBackend(t, b, 7, 12)
		// Audited lists, which encode as unaudited ones do: one encoded
		// before the pause, one after it.
		for _, id := range []zerber.ListID{2, 5} {
			if _, err := b.Commitment(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	seq := d.Seq()
	paused, resume := pauseEncode(d, 3) // lists 0, 1 and 2 written
	done := make(chan error, 1)
	go func() { done <- d.Snapshot() }()
	<-paused
	writesDuringEncode(t, d)
	select {
	case err := <-done:
		t.Fatalf("snapshot returned (%v) while paused", err)
	default:
	}
	resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(d.dir, snapFileName))
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeToBytes(t, seq, oracle); !bytes.Equal(data, want) {
		_, got, err := decodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, got, oracle)
		t.Fatal("the snapshot's bytes differ from the dump of the state at its sequence")
	}
	writesDuringEncode(t, oracle)
	d = reopen(t, d, Options{SnapshotEvery: -1})
	assertSameContent(t, oracle, d)
}

// TestSnapshotCrashPoints copies the data directory at every step of a
// snapshot taken while writers go on — just after the log switched
// segments, mid-encode with a partial temp file, after the rename with
// the old segment still there, and after its deletion — and recovers
// each copy: every acknowledged operation, nothing else, the same
// versions and the same content roots, twice over.
func TestSnapshotCrashPoints(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seedBackend(t, d, 8, 40)
	// Enough payload bytes that the encoder has pushed part of the file
	// out of its buffer before it reaches the last lists.
	var bulk []BatchInsert
	for i := 0; i < 8*250; i++ {
		sealed := fmt.Sprintf("bulk-%04d-%s", i, strings.Repeat("x", 200))
		bulk = append(bulk, BatchInsert{List: zerber.ListID(i % 8), Element: el(sealed, float64(i%13), i%4)})
	}
	if err := d.InsertBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Commitment(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Operations the snapshot under test folds in: the old segment's.
	seedBackend(t, d, 10, 4)
	if err := d.Remove(6, []byte("list6-el7"), nil); err != nil {
		t.Fatal(err)
	}
	type crash struct {
		name string
		dir  string
		want map[zerber.ListID]listCommit
	}
	var crashes []crash
	n := 0
	at := func(name string) {
		// A write not covered by the snapshot, then the copy.
		n++
		if err := d.InsertBatch([]BatchInsert{
			{List: zerber.ListID(n), Element: el(fmt.Sprintf("%s-a", name), 0.6, 1)},
			{List: zerber.ListID(9 - n), Element: el(fmt.Sprintf("%s-b", name), 0.4, 0)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(zerber.ListID(n), []byte(fmt.Sprintf("list%d-el%d", n, n)), nil); err != nil {
			t.Fatal(err)
		}
		dir := copyDir(t, d.dir)
		crashes = append(crashes, crash{name, dir, listCommits(t, d)})
	}
	d.snapPause = func(step snapStep, lists int) {
		switch {
		case step == snapEncoding && lists == 0:
			at("switched")
			if _, err := os.Stat(segmentPath(d.dir, 1)); err != nil {
				t.Errorf("after the switch: %v", err)
			}
		case step == snapEncoding && lists == 6:
			at("mid-encode")
			if fi, err := os.Stat(filepath.Join(d.dir, snapFileName+".tmp")); err != nil || fi.Size() == 0 {
				t.Errorf("mid-encode: no partial temp file (%v)", err)
			}
		case step == snapRenamed:
			at("renamed")
		case step == snapRetired:
			at("retired")
			if _, err := os.Stat(segmentPath(d.dir, 1)); !os.IsNotExist(err) {
				t.Errorf("old segment after its deletion: %v", err)
			}
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if len(crashes) != 4 {
		t.Fatalf("%d crash points reached, want 4", len(crashes))
	}
	for _, c := range crashes {
		for round := 0; round < 2; round++ {
			re, err := OpenDurable(c.dir, Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("%s: reopen %d: %v", c.name, round, err)
			}
			got := listCommits(t, re)
			for id := range mergeKeys(got, c.want) {
				if got[id] != c.want[id] {
					t.Errorf("%s: reopen %d recovered list %d as %+v, want %+v", c.name, round, id, got[id], c.want[id])
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// listCommit is what a crash must not change about a list: its length,
// version and content root.
type listCommit struct {
	n       int
	version uint64
	content string
}

func listCommits(t *testing.T, d *Durable) map[zerber.ListID]listCommit {
	t.Helper()
	out := map[zerber.ListID]listCommit{}
	for _, id := range mustLists(t, d) {
		c, err := d.Commitment(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = listCommit{c.Elements, c.Version, hex.EncodeToString(c.Content[:8])}
	}
	return out
}

// mergeKeys is the set of lists either map holds.
func mergeKeys(a, b map[zerber.ListID]listCommit) map[zerber.ListID]bool {
	keys := map[zerber.ListID]bool{}
	for id := range a {
		keys[id] = true
	}
	for id := range b {
		keys[id] = true
	}
	return keys
}

// copyDir copies the regular files of dir into a new temp dir: the
// state a crash at that instant leaves on disk, as far as the process
// is concerned.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), lockFileName) {
			continue
		}
		src, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
