package store

// Fuzz targets for the store's decoders of on-disk bytes.
//
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
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// walSeedPayloads are well-formed payloads of every record kind, plus
// a batched remove whose count overstates its body.
func walSeedPayloads() map[string][]byte {
	inserts := []BatchInsert{{List: 7, Element: el("s1", 2.5, 0)}, {List: 7, Element: el("s2", 1.5, 3)}, {List: 2, Element: el("s3", 0.5, 1)}}
	removes := []BatchRemove{{List: 7, Sealed: []byte("s1")}, {List: 7, Sealed: []byte("s1")}, {List: 2, Sealed: []byte("s3")}}
	overcount := encodeWALRemoveBatchPayload(12, removes)
	overcount[2] = 100 // seq, op, count: the count byte
	return map[string][]byte{
		// Kinds 1 and 2 have no encoder left. Seq 5, op, list 7, element;
		// seq 6, op, list 7, length, "s2".
		"seed_insert":                 AppendElement([]byte{5, opInsert, 7}, el("s2", 1.5, 3)),
		"seed_remove":                 []byte("\x06\x02\x07\x02s2"),
		"seed_insert_batch":           encodeWALBatchPayload(9, inserts),
		"seed_remove_batch":           encodeWALRemoveBatchPayload(12, removes),
		"seed_remove_batch_overcount": overcount,
	}
}

// FuzzWALRecords hardens recovery and tail export against arbitrary
// record payloads (the CRC only catches torn writes, not a hostile or
// rotted file): decodeWALRecords must fail cleanly or yield records a
// re-encode reproduces, and what it allocates is bounded by the body
// it was handed, never by a count the body merely claims. The corpus
// under testdata/fuzz pins the bytes this commit's encoders wrote.
func FuzzWALRecords(f *testing.F) {
	f.Add([]byte{})
	for _, p := range walSeedPayloads() {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeWALRecords(payload)
		if err != nil {
			if recs != nil {
				t.Fatal("failed decode returned records")
			}
			return
		}
		if cap(recs) > len(payload) {
			t.Fatalf("%d-byte payload allocated room for %d records", len(payload), cap(recs))
		}
		var inserts []BatchInsert
		var removes []BatchRemove
		for i, rec := range recs {
			if rec.seq != recs[0].seq+uint64(i) || rec.op != recs[0].op || (rec.op != opInsert && rec.op != opRemove) {
				t.Fatalf("record %d: seq %d op %d after seq %d op %d", i, rec.seq, rec.op, recs[0].seq, recs[0].op)
			}
			inserts = append(inserts, BatchInsert{List: rec.list, Element: Element{Sealed: rec.sealed, TRS: rec.trs, Group: rec.group}})
			removes = append(removes, BatchRemove{List: rec.list, Sealed: rec.sealed})
		}
		if len(recs) == 0 {
			return // an empty batch
		}
		reenc := encodeWALRemoveBatchPayload(recs[0].seq, removes)
		if recs[0].op == opInsert {
			reenc = encodeWALBatchPayload(recs[0].seq, inserts)
		}
		again, err := decodeWALRecords(reenc)
		if err != nil {
			t.Fatalf("re-encoded records do not decode: %v", err)
		}
		for i := range recs {
			same := again[i].seq == recs[i].seq && again[i].op == recs[i].op && again[i].list == recs[i].list &&
				again[i].group == recs[i].group && bytes.Equal(again[i].sealed, recs[i].sealed) &&
				math.Float64bits(again[i].trs) == math.Float64bits(recs[i].trs)
			if !same {
				t.Fatalf("record %d changed across a re-encode: %+v → %+v", i, recs[i], again[i])
			}
		}
	})
}

// TestWALSeedCorpus keeps the committed FuzzWALRecords corpus equal to
// what the encoders write: a changed byte here is a log format break.
func TestWALSeedCorpus(t *testing.T) {
	for name, payload := range walSeedPayloads() {
		path := filepath.Join("testdata", "fuzz", "FuzzWALRecords", name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s: committed seed differs from the encoder's output (err %v)", path, err)
		}
	}
	if _, err := decodeWALRecords(walSeedPayloads()["seed_remove_batch_overcount"]); err == nil {
		t.Error("a batch whose count overstates its body decoded")
	}
}
