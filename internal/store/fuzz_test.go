package store

// FuzzSnapshotDecode hardens crash recovery against arbitrary
// snapshot bytes: whatever is on disk — torn writes, bit rot, an
// attacker-controlled file — decoding must either fail cleanly with
// ErrBadSnapshot or produce a store whose lists can be queried, proved
// and re-encoded without panicking. The committed seed corpus under
// testdata/fuzz pins the interesting shapes: plain lists, leaf blocks,
// an unknown magic, and framing damage.

import (
	"bytes"
	"errors"
	"testing"
)

// encodeToBytes snapshots a Memory into a byte slice.
func encodeToBytes(t testing.TB, seq uint64, m *Memory) []byte {
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, seq, m); err != nil {
		t.Fatalf("encodeSnapshot: %v", err)
	}
	return buf.Bytes()
}

func FuzzSnapshotDecode(f *testing.F) {
	// Live seeds spanning the format: empty store, plain lists, a list
	// with a materialized leaf block, and damaged variants of each.
	f.Add([]byte{})
	f.Add([]byte("ZSNAP3"))
	f.Add([]byte("ZSNAP9junkjunkjunk"))

	empty := NewMemory()
	f.Add(encodeToBytes(f, 0, empty))

	plain := NewMemory()
	for _, e := range []Element{el("s1", 2.5, 0), el("s2", 1.5, 1), el("s3", 0.5, 0)} {
		plain.Insert(1, e)
		plain.Insert(7, e)
	}
	plainBytes := encodeToBytes(f, 42, plain)
	f.Add(plainBytes)

	committed := NewMemory()
	provedFixture(f, committed, 3)
	if _, err := committed.Commitment(3); err != nil {
		f.Fatal(err)
	}
	leafy := encodeToBytes(f, 99, committed)
	f.Add(leafy)

	// Damaged variants: truncations, a flipped body byte, a flipped CRC.
	f.Add(leafy[:len(leafy)/2])
	f.Add(leafy[:len(leafy)-2])
	flipped := append([]byte{}, leafy...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	badCRC := append([]byte{}, plainBytes...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)

	f.Fuzz(func(t *testing.T, data []byte) {
		seq, m, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("decode error outside ErrBadSnapshot: %v", err)
			}
			return
		}
		// A decode that succeeded must yield a fully usable store:
		// queries, proofs, commitments and a re-encode all exercise the
		// lazily decoded regions.
		lists, err := m.Lists()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range lists {
			if _, err := m.Query(id, nil, 0, 5); err != nil {
				t.Fatalf("list %d query: %v", id, err)
			}
			if _, err := m.QueryProved(id, map[int]bool{0: true}, 1, 3); err != nil {
				t.Fatalf("list %d proved query: %v", id, err)
			}
			if _, err := m.Commitment(id); err != nil {
				t.Fatalf("list %d commitment: %v", id, err)
			}
			if _, err := m.Len(id); err != nil {
				t.Fatalf("list %d len: %v", id, err)
			}
		}
		reenc := encodeToBytes(t, seq, m)
		if _, _, err := decodeSnapshot(reenc); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
	})
}
