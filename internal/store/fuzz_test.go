package store

// Fuzz targets for the store's decoders of on-disk bytes.
//
// FuzzSnapshotDecode hardens crash recovery against arbitrary
// snapshot bytes: whatever is on disk — torn writes, bit rot, an
// attacker-controlled file — decoding must either fail cleanly with
// ErrBadSnapshot or produce a store whose lists can be queried, proved
// and re-encoded without panicking. The committed seed corpus under
// testdata/fuzz pins the interesting shapes: plain lists, leaf blocks
// (which writers no longer write and the reader skips), an unknown
// magic, and framing damage.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"zerberr/internal/zerber"
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
	// Live seeds spanning the format: empty store, plain lists, an
	// audited list, and damaged variants of each.
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
	audited := encodeToBytes(f, 99, committed)
	f.Add(audited)

	// Damaged variants: truncations, a flipped body byte, a flipped CRC.
	f.Add(audited[:len(audited)/2])
	f.Add(audited[:len(audited)-2])
	flipped := append([]byte{}, audited...)
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

// walSeedPayloads are well-formed payloads of both record kinds, plus a
// batched remove whose count overstates its body and a single remove
// (kind 2, seq 6, list 7, length, "s2") of the kind no log holds any
// more: both must fail to decode.
func walSeedPayloads() map[string][]byte {
	inserts := []BatchInsert{{List: 7, Element: el("s1", 2.5, 0)}, {List: 7, Element: el("s2", 1.5, 3)}, {List: 2, Element: el("s3", 0.5, 1)}}
	removes := []BatchRemove{{List: 7, Sealed: []byte("s1")}, {List: 7, Sealed: []byte("s1")}, {List: 2, Sealed: []byte("s3")}}
	overcount := encodeRecord(record{seq: 12, remove: true, removes: removes})
	overcount[2] = 100 // seq, op, count: the count byte
	return map[string][]byte{
		"seed_remove":                 []byte("\x06\x02\x07\x02s2"),
		"seed_insert_batch":           encodeRecord(record{seq: 9, inserts: inserts}),
		"seed_remove_batch":           encodeRecord(record{seq: 12, remove: true, removes: removes}),
		"seed_remove_batch_overcount": overcount,
	}
}

// FuzzWALRecords hardens recovery and tail apply against arbitrary
// record payloads (the CRC only catches torn writes, not a hostile or
// rotted file): decodeRecord must fail cleanly or yield a record a
// re-encode reproduces byte for byte, and what it allocates is bounded
// by the body it was handed, never by a count the body merely claims.
// The corpus under testdata/fuzz pins the bytes this commit's encoder
// wrote.
func FuzzWALRecords(f *testing.F) {
	f.Add([]byte{})
	for _, p := range walSeedPayloads() {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	for _, p := range listIDOutOfRange() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if n := cap(r.inserts) + cap(r.removes); n > len(payload) {
			t.Fatalf("%d-byte payload allocated room for %d ops", len(payload), n)
		}
		reenc := encodeRecord(r)
		if !bytes.Equal(reenc, payload) {
			t.Fatalf("a record re-encodes to other bytes:\n %x\n→%x", payload, reenc)
		}
		again, err := decodeRecord(reenc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(encodeRecord(again), reenc) {
			t.Fatalf("record changed across a re-encode: %+v → %+v", r, again)
		}
	})
}

// lengthen rewrites the byte at b[at] in two bytes: a one-byte varint
// there becomes the same value not in its shortest form.
func lengthen(b []byte, at int) []byte {
	out := append(bytes.Clone(b[:at]), b[at]|0x80, 0)
	return append(out, b[at+1:]...)
}

// TestLogAndSnapshotHaveOneEncoding: a batch record or a snapshot the
// store accepts is the one its encoder writes for what it decoded, so
// no two byte strings hold one logged batch or one dump. Every one-byte
// field, written in two bytes instead — a varint no longer in its
// shortest form, or a fixed-width byte the rest then misreads — is
// refused, or re-encodes to exactly itself.
func TestLogAndSnapshotHaveOneEncoding(t *testing.T) {
	for name, payload := range walSeedPayloads() {
		if _, err := decodeRecord(payload); err != nil {
			continue // the seeds that must fail to decode
		}
		for at := range payload {
			if payload[at] >= 0x80 {
				continue
			}
			long := lengthen(payload, at)
			if r, err := decodeRecord(long); err == nil && !bytes.Equal(encodeRecord(r), long) {
				t.Errorf("%s: byte %d written in two bytes decodes to a record of %d bytes", name, at, len(encodeRecord(r)))
			}
		}
	}
	m := NewMemory()
	for _, e := range []Element{el("s1", 2.5, 0), el("s2", 1.5, 1), el("s3", 0.5, 0)} {
		m.Insert(1, e)
		m.Insert(7, e)
	}
	snap := encodeToBytes(t, 42, m)
	body := snap[len(snapMagic) : len(snap)-4]
	for at := range body {
		if body[at] >= 0x80 {
			continue
		}
		long := append([]byte(snapMagic), lengthen(body, at)...)
		long = binary.BigEndian.AppendUint32(long, crc32.ChecksumIEEE(long[len(snapMagic):]))
		if seq, got, err := decodeSnapshot(long); err == nil && !bytes.Equal(encodeToBytes(t, seq, got), long) {
			t.Errorf("snapshot byte %d written in two bytes decodes to a snapshot of %d bytes", at, len(encodeToBytes(t, seq, got)))
		}
	}
}

// listIDOutOfRange are remove batches naming list 2³²+5, as their
// first list ID and as a running delta.
func listIDOutOfRange() map[string][]byte {
	const big = 1<<32 + 5
	first := binary.AppendVarint([]byte{6, opRemoveBatch, 1}, big)
	first = append(first, 2, 's', '1')
	delta := []byte{7, opRemoveBatch, 2}
	delta = append(binary.AppendVarint(delta, 5), 2, 's', '1')
	delta = append(binary.AppendVarint(delta, big-5), 2, 's', '2')
	return map[string][]byte{"first list ID": first, "running delta": delta}
}

// TestWALListIDOutOfRange: a list ID, or a running delta, past 2³²−1 is
// a decode error — never a list ID wrapped modulo 2³², which is what a
// bare conversion to zerber.ListID would make of 2³²+5.
func TestWALListIDOutOfRange(t *testing.T) {
	for name, payload := range listIDOutOfRange() {
		if r, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: list 2³²+5 decoded as %+v", name, r)
		}
	}
}

// TestWALSeedCorpus keeps the committed FuzzWALRecords and FuzzApplyTail
// corpora equal to what the encoders write: a changed byte here is a
// log or tail format break.
func TestWALSeedCorpus(t *testing.T) {
	for target, seeds := range map[string]map[string][]byte{
		"FuzzWALRecords": walSeedPayloads(),
		"FuzzApplyTail":  applyTailSeeds(t),
	} {
		for name, payload := range seeds {
			path := filepath.Join("testdata", "fuzz", target, name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
			got, err := os.ReadFile(path)
			if err != nil || string(got) != want {
				t.Errorf("%s: committed seed differs from the encoder's output (err %v)", path, err)
			}
		}
	}
	for _, name := range []string{"seed_remove_batch_overcount", "seed_remove"} {
		if r, err := decodeRecord(walSeedPayloads()[name]); err == nil {
			t.Errorf("%s decoded as %+v", name, r)
		}
	}
}

// tailFixture is the store FuzzApplyTail applies tails to, as a
// snapshot: three lists of three elements.
func tailFixture(tb testing.TB) []byte {
	m := NewMemory()
	m.verBase = 1 << 40
	for l := zerber.ListID(1); l <= 3; l++ {
		for i := 0; i < 3; i++ {
			if err := m.Insert(l, el(fmt.Sprintf("l%d-%d", l, i), float64(i), i%2)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	snap, _, err := m.ExportSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// tailStore is a Memory holding the fixture, with a fixed epoch for the
// lists a tail creates.
func tailStore(tb testing.TB, snap []byte) *Memory {
	m := NewMemory()
	if err := m.ImportSnapshot(snap); err != nil {
		tb.Fatal(err)
	}
	m.verBase = 1 << 41
	return m
}

// applyTailSeeds are the FuzzApplyTail seeds: the tail a durable store
// holding the fixture logs for insert, insert, remove, remove, insert
// batches (a new list among them), its truncations at every frame end
// and one byte short of each, and the whole tail with one CRC flipped.
func applyTailSeeds(tb testing.TB) map[string][]byte {
	d, err := OpenDurable(tb.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	if err := d.ImportSnapshot(tailFixture(tb)); err != nil {
		tb.Fatal(err)
	}
	for _, err := range []error{
		d.InsertBatch([]BatchInsert{{List: 1, Element: el("n1", 0.5, 0)}, {List: 2, Element: el("n2", 2.5, 1)}}),
		d.Insert(9, el("n9", 1.5, 0)),
		d.RemoveBatch([]BatchRemove{{List: 1, Sealed: []byte("l1-0")}, {List: 2, Sealed: []byte("n2")}}, nil),
		d.Remove(3, []byte("l3-2"), nil),
		d.Insert(3, el("n3", 0.25, 1)),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	tail, err := d.TailSince(0)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := map[string][]byte{"seed_tail": tail}
	fr := newFrames(tail)
	if err := fr.each(func(record) {
		for _, cut := range []int{fr.r.Offset() - 1, fr.r.Offset()} {
			if cut < len(tail) {
				seeds[fmt.Sprintf("seed_tail_cut_%03d", cut)] = tail[:cut]
			}
		}
	}); err != nil {
		tb.Fatal(err)
	}
	flipped := bytes.Clone(tail)
	flipped[len(flipped)-1] ^= 0xff
	seeds["seed_tail_bad_crc"] = flipped
	return seeds
}

// FuzzApplyTail hardens the apply side of a shard copy against whatever
// a peer sends as a tail. ApplyTail must not panic, must allocate for
// the tail no more than its bytes can hold, and must leave the
// destination exactly where the tail's decoded operations say: every
// list's content and version untouched when the tail does not decode,
// and otherwise the state the ops it reports applied produce when
// applied one at a time — all of them on success, the runs before the
// failing one when a remove does not resolve.
func FuzzApplyTail(f *testing.F) {
	for _, seed := range applyTailSeeds(f) {
		f.Add(seed)
	}
	snap := tailFixture(f)
	f.Fuzz(func(t *testing.T, tail []byte) {
		recs, derr := readTail(tail)
		room := 0
		for _, r := range recs {
			room += cap(r.inserts) + cap(r.removes)
		}
		if room > len(tail) {
			t.Fatalf("%d-byte tail allocated room for %d ops", len(tail), room)
		}
		got := tailStore(t, snap)
		ops, err := ApplyTail(got, tail)
		want := tailStore(t, snap)
		switch {
		case derr != nil:
			if !errors.Is(err, ErrBadWAL) || ops != 0 {
				t.Fatalf("undecodable tail (%v): applied %d ops, err %v", derr, ops, err)
			}
			recs = nil
		case err != nil:
			var be *BatchOpError
			if !errors.As(err, &be) || !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrUnknownList) {
				t.Fatalf("a decoded tail failed with %v, want an unresolved remove", err)
			}
		}
		for _, r := range recs {
			for _, op := range r.inserts {
				if ops--; ops < 0 {
					break
				}
				_ = want.Insert(op.List, op.Element)
			}
			for _, op := range r.removes {
				if ops--; ops < 0 {
					break
				}
				if err := want.Remove(op.List, op.Sealed, nil); err != nil {
					t.Fatalf("op %+v applied as a batch, fails alone: %v", op, err)
				}
			}
		}
		if ops > 0 {
			t.Fatalf("ApplyTail reports %d ops more than the tail holds", ops)
		}
		sameState(t, got, want)
	})
}

// sameState fails unless a and b hold the same lists with the same
// versions and the same elements (compared as encoded records, so NaN
// TRS values compare by bit pattern).
func sameState(t *testing.T, a, b *Memory) {
	t.Helper()
	state := func(m *Memory) map[zerber.ListID]string {
		out := map[zerber.ListID]string{}
		lists, _ := m.Lists()
		for _, id := range lists {
			v, _ := m.Version(id)
			var recs []string
			_ = m.View(id, func(elems []Element) {
				for _, e := range elems {
					recs = append(recs, string(AppendElement(nil, e)))
				}
			})
			sort.Strings(recs)
			out[id] = fmt.Sprintf("v%d %q", v, recs)
		}
		return out
	}
	if sa, sb := state(a), state(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("stores differ:\n%v\n%v", sa, sb)
	}
}
