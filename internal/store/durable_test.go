package store

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zerberr/internal/zerber"
)

// reopen closes d and opens the same directory again.
func reopen(t *testing.T, d *Durable, opt Options) *Durable {
	t.Helper()
	dir := d.dir
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	nd, err := OpenDurable(dir, opt)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

func TestDurableRestartRecoversState(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Insert(zerber.ListID(i%7), el(fmt.Sprintf("p%03d", i), float64(i%13), i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove(0, []byte("p000"), nil); err != nil {
		t.Fatal(err)
	}
	want := dump(t, d)
	d = reopen(t, d, Options{})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\ngot  %v\nwant %v", got, want)
	}
	// And again: recovery itself must leave a reopenable directory.
	d = reopen(t, d, Options{})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("second recovery differs")
	}
}

// TestDurableTornFinalRecord writes N operations, truncates the WAL at
// every byte offset inside the final record, reopens, and asserts the
// store recovers exactly the N-1 prefix each time.
func TestDurableTornFinalRecord(t *testing.T) {
	const n = 20
	base := t.TempDir()
	build := func(dir string) (prefix map[zerber.ListID][]Element, sizes []int64) {
		d, err := OpenDurable(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if i == n-1 {
				prefix = dump(t, d)
			}
			if err := d.Insert(zerber.ListID(i%3), el(fmt.Sprintf("payload-%02d", i), float64(i), i%2)); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(dir, walFileName))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, fi.Size())
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return prefix, sizes
	}
	master := filepath.Join(base, "master")
	prefix, sizes := build(master)
	walBytes, err := os.ReadFile(filepath.Join(master, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	lastStart, lastEnd := sizes[n-2], sizes[n-1]
	if int64(len(walBytes)) != lastEnd {
		t.Fatalf("wal is %d bytes, expected %d", len(walBytes), lastEnd)
	}
	for cut := lastStart + 1; cut < lastEnd; cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got := dump(t, d)
		if !reflect.DeepEqual(got, prefix) {
			t.Fatalf("cut at %d: recovered %d elements, want the %d-op prefix", cut, mustNumElements(t, d), n-1)
		}
		// The torn tail must be gone: appending afterwards and
		// reopening must still work.
		if err := d.Insert(99, el("after-crash", 1, 0)); err != nil {
			t.Fatal(err)
		}
		d = reopen(t, d, Options{})
		if mustLen(t, d, 99) != 1 {
			t.Fatalf("cut at %d: post-crash append lost", cut)
		}
		d.Close()
	}
}

// TestDurableTruncatedToAnyPrefix cuts the WAL at arbitrary offsets
// (not just inside the final record) and checks recovery never fails
// and always yields a prefix of the operation history.
func TestDurableTruncatedToAnyPrefix(t *testing.T) {
	const n = 12
	base := t.TempDir()
	master := filepath.Join(base, "master")
	d, err := OpenDurable(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var states []map[zerber.ListID][]Element // states[i] = after i ops
	var sizes []int64                        // sizes[i] = WAL size after i ops
	states = append(states, dump(t, d))
	fi, _ := os.Stat(filepath.Join(master, walFileName))
	sizes = append(sizes, fi.Size())
	for i := 0; i < n; i++ {
		if err := d.Insert(zerber.ListID(i%2), el(fmt.Sprintf("e%02d", i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
		states = append(states, dump(t, d))
		fi, err := os.Stat(filepath.Join(master, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	d.Close()
	walBytes, err := os.ReadFile(filepath.Join(master, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(walBytes)); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		// The recovered state must be states[k] for the largest k with
		// sizes[k] <= cut: every fully-written record survives, every
		// partial one is dropped.
		k := 0
		for i, s := range sizes {
			if s <= cut {
				k = i
			}
		}
		if got := dump(t, d); !reflect.DeepEqual(got, states[k]) {
			t.Fatalf("cut at %d: state is not the %d-op prefix", cut, k)
		}
		d.Close()
	}
}

func TestDurableSnapshotCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Insert(1, el(fmt.Sprintf("e%02d", i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	big, _ := os.Stat(filepath.Join(dir, walFileName))
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	small, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() != int64(len(walMagic)) {
		t.Fatalf("WAL after snapshot is %d bytes, want bare header (was %d)", small.Size(), big.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	want := dump(t, d)
	d = reopen(t, d, Options{})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("state after snapshot-only recovery differs")
	}
}

// TestDurableStaleWALAfterSnapshot simulates a crash between the
// snapshot rename and the WAL truncation: the old log survives next to
// the new snapshot. Sequence numbers must prevent double-apply.
func TestDurableStaleWALAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Insert(zerber.ListID(i%4), el(fmt.Sprintf("e%02d", i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	staleWAL, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncation: put the pre-snapshot log back.
	if err := os.WriteFile(filepath.Join(dir, walFileName), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	nd, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if got := dump(t, nd); !reflect.DeepEqual(got, want) {
		t.Fatalf("stale WAL double-applied: %d elements, want %d", mustNumElements(t, nd), 30)
	}
}

// TestDurableRandomizedRoundTrip is the snapshot/WAL property test: a
// randomized insert/remove sequence with snapshots at random points
// must leave Durable equal to a plain Memory reference, before and
// after recovery.
func TestDurableRandomizedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opt := Options{
				SnapshotEvery: 25 + rng.Intn(50),
				FsyncEach:     seed%2 == 0,
			}
			d, err := OpenDurable(t.TempDir(), opt)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewMemory()
			live := make([][2]interface{}, 0) // (list, sealed) of inserted elements
			for op := 0; op < 400; op++ {
				switch {
				case len(live) > 0 && rng.Intn(3) == 0: // remove
					i := rng.Intn(len(live))
					list, sealed := live[i][0].(zerber.ListID), live[i][1].(string)
					live = append(live[:i], live[i+1:]...)
					errD := d.Remove(list, []byte(sealed), nil)
					errR := ref.Remove(list, []byte(sealed), nil)
					if (errD == nil) != (errR == nil) {
						t.Fatalf("op %d: remove divergence: durable=%v ref=%v", op, errD, errR)
					}
				case rng.Intn(40) == 0: // explicit snapshot
					if err := d.Snapshot(); err != nil {
						t.Fatal(err)
					}
				default: // insert
					list := zerber.ListID(rng.Intn(6))
					sealed := fmt.Sprintf("s%04d-%d", op, rng.Intn(1000))
					e := el(sealed, float64(rng.Intn(100)), rng.Intn(4))
					if err := d.Insert(list, e); err != nil {
						t.Fatal(err)
					}
					if err := ref.Insert(list, e); err != nil {
						t.Fatal(err)
					}
					live = append(live, [2]interface{}{list, sealed})
				}
			}
			want := dump(t, ref)
			if got := dump(t, d); !reflect.DeepEqual(got, want) {
				t.Fatal("durable diverged from reference before recovery")
			}
			d = reopen(t, d, opt)
			if got := dump(t, d); !reflect.DeepEqual(got, want) {
				t.Fatal("durable diverged from reference after recovery")
			}
		})
	}
}

func TestDurableClosedOps(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := d.Insert(1, el("x", 1, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert on closed: %v", err)
	}
	if err := d.Remove(1, []byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Remove on closed: %v", err)
	}
	if err := d.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot on closed: %v", err)
	}
}

// Reads must refuse a closed store too: the WAL is gone and the in-RAM
// state is frozen, so answering would silently serve a stale index
// (the bug: View/Len/Lists/NumLists/NumElements bypassed the closed
// check and kept answering from memory).
func TestDurableReadsAfterClose(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, el("x", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(1, nil, 0, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query on closed: %v", err)
	}
	if err := d.View(1, func([]Element) { t.Fatal("View ran on closed store") }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View on closed: %v", err)
	}
	if n, err := d.Len(1); !errors.Is(err, ErrClosed) || n != 0 {
		t.Fatalf("Len on closed: n=%d err=%v", n, err)
	}
	if ids, err := d.Lists(); !errors.Is(err, ErrClosed) || ids != nil {
		t.Fatalf("Lists on closed: ids=%v err=%v", ids, err)
	}
	if n, err := d.NumLists(); !errors.Is(err, ErrClosed) || n != 0 {
		t.Fatalf("NumLists on closed: n=%d err=%v", n, err)
	}
	if n, err := d.NumElements(); !errors.Is(err, ErrClosed) || n != 0 {
		t.Fatalf("NumElements on closed: n=%d err=%v", n, err)
	}
}

func TestDurableDataDirLocked(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open: %v, want ErrLocked", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock: the directory is reopenable.
	nd, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	nd.Close()
}

// TestDurableWALPoisonAndHeal forces a log-write failure (closing the
// WAL file out from under the store), checks mutations are refused
// while the on-disk state is ambiguous, and that a successful
// snapshot clears the poison.
func TestDurableWALPoisonAndHeal(t *testing.T) {
	var logged []string
	d, err := OpenDurable(t.TempDir(), Options{
		SnapshotEvery: -1,
		Logf:          func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Insert(1, el("ok", 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the log: swap in a wal whose file handle is closed, so
	// the next append's flush fails. Keep the real handle to restore
	// writability for the healing snapshot.
	realWAL := d.wal
	broken, err := os.Open(filepath.Join(d.dir, walFileName)) // read-only: writes fail
	if err != nil {
		t.Fatal(err)
	}
	d.wal = &wal{f: broken, bw: bufio.NewWriterSize(broken, 16)}
	if err := d.Insert(1, el("fails", 2, 0)); err == nil {
		t.Fatal("insert over broken WAL succeeded")
	}
	if mustLen(t, d, 1) != 1 {
		t.Fatal("failed insert reached memory")
	}
	// Poisoned: even valid mutations are refused now.
	if err := d.Insert(1, el("refused", 3, 0)); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("expected poisoned error, got %v", err)
	}
	if len(logged) == 0 {
		t.Fatal("poisoning was not logged")
	}
	// Heal: restore a writable log and snapshot.
	broken.Close()
	d.wal = realWAL
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, el("healed", 4, 0)); err != nil {
		t.Fatalf("insert after healing snapshot: %v", err)
	}
	want := dump(t, d)
	d = reopen(t, d, Options{})
	if got := dump(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("state after heal + recovery differs")
	}
}

func TestDurableCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(1, el("x", 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	path := filepath.Join(dir, snapFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt snapshot: %v", err)
	}
}
