package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"zerberr/internal/zerber"
)

// mustVersion reads a list's version or fails the test.
func mustVersion(t *testing.T, b Backend, list zerber.ListID) uint64 {
	t.Helper()
	v, err := b.Version(list)
	if err != nil {
		t.Fatalf("Version(%d): %v", list, err)
	}
	return v
}

// TestVersionCounting pins the counter semantics every backend must
// share: unknown lists error, each insert and each successful remove
// bumps by exactly one over the list's epoch base, failed removes
// leave the counter alone, and Query reports the version its window
// was read at.
func TestVersionCounting(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Version(1); !errors.Is(err, ErrUnknownList) {
				t.Fatalf("Version of unknown list: %v, want ErrUnknownList", err)
			}
			if err := b.Insert(1, el("v0", 0, 0)); err != nil {
				t.Fatal(err)
			}
			base := mustVersion(t, b, 1) - 1 // per-instance random epoch
			for i := 1; i < 5; i++ {
				if err := b.Insert(1, el(fmt.Sprintf("v%d", i), float64(i), i%2)); err != nil {
					t.Fatal(err)
				}
				if v := mustVersion(t, b, 1); v != base+uint64(i+1) {
					t.Fatalf("after %d inserts: version %d, want base+%d", i+1, v, i+1)
				}
			}
			if err := b.Remove(1, []byte("v3"), nil); err != nil {
				t.Fatal(err)
			}
			if v := mustVersion(t, b, 1); v != base+6 {
				t.Fatalf("after remove: version %d, want base+6", v)
			}
			// A remove that fails (no match, or vetoed by the ACL
			// predicate) changes nothing, so it must not bump.
			if err := b.Remove(1, []byte("absent"), nil); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Remove(absent): %v", err)
			}
			if err := b.Remove(1, []byte("v4"), func(int) bool { return false }); !errors.Is(err, ErrDenied) {
				t.Fatalf("Remove(denied): %v", err)
			}
			if v := mustVersion(t, b, 1); v != base+6 {
				t.Fatalf("after failed removes: version %d, want base+6", v)
			}
			res, err := b.Query(1, nil, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != base+6 {
				t.Fatalf("Query version %d, want base+6", res.Version)
			}
			// Versions are per list, counted from the shared epoch.
			if err := b.Insert(2, el("other", 1, 0)); err != nil {
				t.Fatal(err)
			}
			if v := mustVersion(t, b, 2); v != base+1 {
				t.Fatalf("second list version %d, want base+1", v)
			}
			if v := mustVersion(t, b, 1); v != base+6 {
				t.Fatalf("first list perturbed by second: version %d, want base+6", v)
			}
		})
	}
}

// TestVersionEpochAcrossInstances: two fresh RAM-only stores given the
// same mutation history must (with overwhelming probability) not agree
// on versions — the per-instance epoch is what stops a restarted
// RAM-only shard from re-counting its way back to a version an
// out-of-process window cache observed before the restart, with
// different content behind it.
func TestVersionEpochAcrossInstances(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	for _, m := range []*Memory{a, b} {
		if err := m.Insert(1, el("same", 1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	va, vb := mustVersion(t, a, 1), mustVersion(t, b, 1)
	if va == vb {
		t.Fatalf("two instances agree on version %d — epoch missing (2^-32 flake; rerun to confirm)", va)
	}
	if va>>32 == 0 || vb>>32 == 0 {
		t.Fatalf("epoch bits empty: %d, %d (2^-32 flake per instance; rerun to confirm)", va, vb)
	}
}

// TestVersionSurvivesRecovery is the cache-safety property of the
// durable engine: the mutation counter recovered from snapshot + WAL
// replay equals the pre-shutdown counter exactly, in every mix of
// snapshot coverage and WAL tail. If recovery restarted the counter
// instead, later mutations could climb it back to a pre-crash value
// with different content, and a version-keyed cache would serve
// pre-crash windows as current.
func TestVersionSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: mutations folded into a snapshot (7 inserts, 2 removes
	// -> version 9 with 5 elements).
	for i := 0; i < 7; i++ {
		if err := d.Insert(3, el(fmt.Sprintf("s%d", i), float64(i), i%3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"s1", "s4"} {
		if err := d.Remove(3, []byte(p), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: more mutations living only in the WAL tail.
	for i := 7; i < 10; i++ {
		if err := d.Insert(3, el(fmt.Sprintf("s%d", i), float64(i), i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove(3, []byte("s8"), nil); err != nil {
		t.Fatal(err)
	}
	want := mustVersion(t, d, 3) // epoch + 9 snapshotted + 4 logged
	wantRes0, err := d.Query(3, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want != wantRes0.Version {
		t.Fatalf("Version (%d) and Query version (%d) disagree", want, wantRes0.Version)
	}
	wantRes, err := d.Query(3, nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}

	d = reopen(t, d, Options{SnapshotEvery: -1})
	got := mustVersion(t, d, 3)
	if got != want {
		t.Fatalf("recovered version %d, want %d", got, want)
	}
	gotRes, err := d.Query(3, nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Version != want {
		t.Fatalf("recovered Query version %d, want %d", gotRes.Version, want)
	}
	if len(gotRes.Elements) != len(wantRes.Elements) {
		t.Fatalf("recovered %d elements, want %d", len(gotRes.Elements), len(wantRes.Elements))
	}
	// Equal versions must mean equal content — the cache invariant.
	for i := range gotRes.Elements {
		if string(gotRes.Elements[i].Sealed) != string(wantRes.Elements[i].Sealed) {
			t.Fatalf("element %d diverged after recovery", i)
		}
	}
	// Post-recovery mutations keep climbing, so a window cached at the
	// pre-crash version can never be revalidated against new content.
	if err := d.Insert(3, el("post", 99, 0)); err != nil {
		t.Fatal(err)
	}
	if v := mustVersion(t, d, 3); v != want+1 {
		t.Fatalf("post-recovery version %d, want %d", v, want+1)
	}

	// And once more through a second recovery: the counter is stable
	// under repeated replay, not just the first.
	d = reopen(t, d, Options{})
	if v := mustVersion(t, d, 3); v != want+1 {
		t.Fatalf("second recovery version %d, want %d", v, want+1)
	}
}

// TestVersionUntouchedByFailedRemove: a Remove whose WAL append fails
// must leave the list exactly as it was — content and version. The
// removal commits to memory and the log atomically under the list
// lock, so there is no rollback path that burns unlogged version
// bumps; if there were, a crash while the log is poisoned would let
// recovery re-mint an observed version with different content, and a
// version-keyed cache (a cluster router outlives the server process)
// could revalidate a stale window.
func TestVersionUntouchedByFailedRemove(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 4; i++ {
		if err := d.Insert(5, el(fmt.Sprintf("r%d", i), float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	wantVer := mustVersion(t, d, 5)
	wantRes, err := d.Query(5, nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the log the way the poison test does: a read-only
	// handle makes the next append's flush fail.
	realWAL := d.wal
	broken, err := os.Open(filepath.Join(d.dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	d.wal = &wal{f: broken, bw: bufio.NewWriterSize(broken, 16)}
	if err := d.Remove(5, []byte("r2"), nil); err == nil {
		t.Fatal("remove over broken WAL succeeded")
	}
	broken.Close()
	d.wal = realWAL
	if v := mustVersion(t, d, 5); v != wantVer {
		t.Fatalf("failed remove moved the version: %d, want %d", v, wantVer)
	}
	gotRes, err := d.Query(5, nil, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes.Elements) != len(wantRes.Elements) {
		t.Fatalf("failed remove changed content: %d elements, want %d", len(gotRes.Elements), len(wantRes.Elements))
	}
	for i := range gotRes.Elements {
		if string(gotRes.Elements[i].Sealed) != string(wantRes.Elements[i].Sealed) {
			t.Fatalf("failed remove changed element %d", i)
		}
	}
}

// TestOldSnapshotGenerationsRejected: ZSNAP3 is the only snapshot
// format read. Hand-encoded, CRC-valid dumps of the two retired
// generations — ZSNAP1 (no per-list version, no leaf flag) and ZSNAP2
// (version, no leaf flag) — are ErrBadSnapshot on both read paths,
// recovery and import, like any other unknown header.
func TestOldSnapshotGenerationsRejected(t *testing.T) {
	for magic, hasVersion := range map[string]bool{"ZSNAP1": false, "ZSNAP2": true} {
		body := binary.AppendUvarint(nil, 41) // seq
		body = binary.AppendUvarint(body, 1)  // one list
		body = binary.AppendUvarint(body, 9)  // list ID
		if hasVersion {
			body = binary.AppendUvarint(body, 7)
		}
		body = binary.AppendUvarint(body, 2) // two elements
		for _, e := range []Element{el("a", 2, 0), el("b", 1, 1)} {
			body = binary.AppendVarint(body, int64(e.Group))
			body = binary.BigEndian.AppendUint64(body, math.Float64bits(e.TRS))
			body = binary.AppendUvarint(body, uint64(len(e.Sealed)))
			body = append(body, e.Sealed...)
		}
		raw := append([]byte(magic), body...)
		raw = binary.BigEndian.AppendUint32(raw, crc32.ChecksumIEEE(body))
		path := filepath.Join(t.TempDir(), snapFileName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readSnapshot(path); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s recovery: err = %v, want ErrBadSnapshot", magic, err)
		}
		if err := NewMemory().ImportSnapshot(raw); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s import: err = %v, want ErrBadSnapshot", magic, err)
		}
	}
}
