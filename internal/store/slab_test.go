package store

// Tests for the pointer-free layout: records over one payload slab per
// list. The store copies what it keeps and never rewrites a slab byte,
// so every payload it hands out stays what it was — through inserts,
// removes, slab rebuilds, lazy materialization and snapshot rewrites —
// and an append to one can never reach a neighbour. CI runs the
// concurrent ones under the race detector, 20 times.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// TestRecordsArePointerFree: a run of records is memory the collector
// never scans, which holds only while no field of rec, however deeply
// nested, can hold a pointer.
func TestRecordsArePointerFree(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	typ := reflect.TypeOf(rec{})
	walk(typ, typ.Name())
	if typ.Size() > 16 {
		t.Errorf("a record is %d bytes, want at most 16", typ.Size())
	}
}

// slabPayload is a self-describing payload: an 8-byte serial, its
// complement, and a filler byte derived from it. Whoever holds one can
// tell from the bytes alone whether they are still what was inserted.
func slabPayload(serial uint64, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, serial)
	binary.BigEndian.PutUint64(p[8:], ^serial)
	for i := 16; i < size; i++ {
		p[i] = byte(serial) ^ byte(i)
	}
	return p
}

func intactPayload(p []byte) bool {
	if len(p) < 16 {
		return false
	}
	serial := binary.BigEndian.Uint64(p)
	return bytes.Equal(p, slabPayload(serial, len(p)))
}

// heldPayload is one payload a caller took from the store, with the
// bytes it had then.
type heldPayload struct{ alias, want []byte }

func holdAll(t *testing.T, m *Memory, list zerber.ListID) []heldPayload {
	t.Helper()
	res, err := m.Query(list, nil, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]heldPayload, len(res.Elements))
	for i, el := range res.Elements {
		held[i] = heldPayload{alias: el.Sealed, want: bytes.Clone(el.Sealed)}
	}
	return held
}

func checkHeld(t *testing.T, step string, held []heldPayload) {
	t.Helper()
	for i, h := range held {
		if !bytes.Equal(h.alias, h.want) {
			t.Fatalf("after %s: held payload %d reads %x, was %x", step, i, h.alias, h.want)
		}
	}
}

// TestPayloadsOutliveMutations: payloads taken from the store — out of
// a lazily materialized list's snapshot region and out of its own slab
// — read the same bytes after inserts that grow the slab into a new
// allocation, removes, a slab rebuild and a snapshot rewrite that
// renames a new file over the mapped one.
func TestPayloadsOutliveMutations(t *testing.T) {
	const list = zerber.ListID(4)
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	serial := uint64(0)
	insert := func(d *Durable, n int) {
		t.Helper()
		ops := make([]BatchInsert, n)
		for i := range ops {
			serial++
			ops[i] = BatchInsert{List: list, Element: Element{Sealed: slabPayload(serial, 20+int(serial%13)), TRS: float64(serial % 7), Group: int(serial % 3)}}
		}
		if err := d.InsertBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	insert(d, 300)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, lazy := d.mem.lazy[list]; !lazy {
		t.Fatal("the reopened list is not lazily loaded")
	}

	held := holdAll(t, d.mem, list) // materializes: these alias the snapshot region
	ml := d.mem.list(list, false)
	if len(ml.base) == 0 || len(ml.slab) != 0 {
		t.Fatalf("materialized list: base %d bytes, slab %d: its payloads are not the snapshot region", len(ml.base), len(ml.slab))
	}
	checkHeld(t, "lazy materialization", held)

	insert(d, 1)
	held = append(held, holdAll(t, d.mem, list)...) // slab payloads too
	before := &ml.slab[:1][0]
	for range 40 {
		insert(d, 25)
	}
	if &ml.slab[:1][0] == before {
		t.Fatal("test bug: the inserts never moved the slab to a new allocation")
	}
	checkHeld(t, "inserts", held)

	// Remove most elements, one batch at a time, until the dead bytes
	// outnumber the live ones and the slab is rebuilt; hold every
	// payload of the slab the rebuild replaces.
	all := holdAll(t, d.mem, list)
	held = append(held, all...)
	rebuilt := false
	for i := 0; i < len(all) && !rebuilt; i += 10 {
		var ops []BatchRemove
		for _, h := range all[i:min(i+10, len(all))] {
			ops = append(ops, BatchRemove{List: list, Sealed: h.want})
		}
		if err := d.RemoveBatch(ops, nil); err != nil {
			t.Fatal(err)
		}
		checkHeld(t, "removes", held)
		rebuilt = ml.base == nil
	}
	if !rebuilt {
		t.Fatal("test bug: the removes never rebuilt the slab")
	}
	if dead := len(ml.slab) - ml.live; dead != 0 {
		t.Fatalf("rebuilt slab holds %d dead bytes", dead)
	}
	checkHeld(t, "a slab rebuild", held)

	held = append(held, holdAll(t, d.mem, list)...)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	insert(d, 10)
	checkHeld(t, "a snapshot rewrite", held)
}

// TestOrderSurvivesRebuildsAndRestarts: a record's offset is its
// insertion sequence, so exact (TRS, payload) ties must keep insertion
// order through everything that moves offsets — slab rebuilds, and
// restarts that make a snapshot region a list's base — and so must
// empty payloads, which tie on everything but the offset. The shadow
// oracle of TestQueryDifferential judges every read.
func TestOrderSurvivesRebuildsAndRestarts(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	rng := rand.New(rand.NewSource(11))
	oracle := newShadow()
	payloads := []string{"", "a", "b", "ab", "ba"}
	rebuilds, restarts := 0, 0
	for step := 0; step < 3000; step++ {
		list := zerber.ListID(1 + rng.Intn(2))
		// Phases of mostly inserts, then mostly removes, so the dead bytes
		// come to outnumber the live ones.
		if step%400 < 250 || rng.Intn(4) == 0 {
			el := Element{Sealed: []byte(payloads[rng.Intn(len(payloads))]), TRS: float64(rng.Intn(2)) / 2, Group: rng.Intn(4)}
			oracle.insert(list, el)
			if err := d.Insert(list, el); err != nil {
				t.Fatal(err)
			}
		} else {
			sealed := []byte(payloads[rng.Intn(len(payloads))])
			var dead int
			ml := d.mem.list(list, false)
			if ml != nil {
				dead = len(ml.base) + len(ml.slab) - ml.live
			}
			removed := oracle.remove(list, sealed)
			if err := d.Remove(list, sealed, nil); removed != (err == nil) {
				t.Fatalf("step %d: Remove(%q) = %v, the oracle removed: %v", step, sealed, err, removed)
			}
			if ml != nil && len(ml.base)+len(ml.slab)-ml.live < dead {
				rebuilds++
			}
		}
		if step%300 == 299 {
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = OpenDurable(dir, Options{SnapshotEvery: -1}); err != nil {
				t.Fatal(err)
			}
			restarts++
		}
		var allowed map[int]bool
		if rng.Intn(2) == 0 {
			allowed = map[int]bool{rng.Intn(4): true, rng.Intn(4): true}
		}
		want, _ := oracle.query(list, allowed, 0, 1<<30)
		got, err := d.Query(list, allowed, 0, 1<<30)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(got.Elements) != len(want.Elements) {
			t.Fatalf("step %d: %d elements, want %d", step, len(got.Elements), len(want.Elements))
		}
		for i, el := range got.Elements {
			w := want.Elements[i]
			if !bytes.Equal(el.Sealed, w.Sealed) || el.TRS != w.TRS || el.Group != w.Group {
				t.Fatalf("step %d: element %d = %+v, want %+v", step, i, el, w)
			}
		}
	}
	if rebuilds == 0 || restarts == 0 {
		t.Fatalf("test bug: %d rebuilds, %d restarts", rebuilds, restarts)
	}
}

// TestAppendToPayloadLeavesStore: every payload the store hands out —
// query results, proof boundaries, views, from a snapshot region or
// from the slab — is capped to its own length, so a caller appending
// to it gets a copy and the next read is byte-identical.
func TestAppendToPayloadLeavesStore(t *testing.T) {
	const list = zerber.ListID(2)
	m := NewMemory()
	var ops []BatchInsert
	for i := range 40 {
		ops = append(ops, BatchInsert{List: list, Element: Element{Sealed: slabPayload(uint64(i), 24), TRS: float64(i % 5), Group: i % 3}})
	}
	if err := m.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
	snap, _, err := m.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	lazy := NewMemory()
	if err := lazy.ImportSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Memory{"slab": m, "snapshot region": lazy} {
		var first []Element
		read := func() []Element {
			t.Helper()
			res, err := m.QueryProved(list, map[int]bool{0: true, 2: true}, 3, 20)
			if err != nil {
				t.Fatal(err)
			}
			out := res.Elements
			for _, gw := range res.Proof.Groups {
				for _, edge := range [][]proof.Boundary{gw.Pred, gw.Succ} {
					for _, bd := range edge {
						out = append(out, Element{Sealed: bd.Sealed, TRS: bd.TRS, Group: gw.Group})
					}
				}
			}
			if err := m.View(list, func(elems []Element) { out = append(out, elems...) }); err != nil {
				t.Fatal(err)
			}
			return out
		}
		for round := range 3 {
			got := read()
			if round == 0 {
				first = make([]Element, len(got))
				for i, el := range got {
					first[i] = Element{Sealed: bytes.Clone(el.Sealed), TRS: el.TRS, Group: el.Group}
				}
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: read %d differs after appends to the payloads of the reads before it", name, round)
			}
			for _, el := range got {
				if cap(el.Sealed) != len(el.Sealed) {
					t.Fatalf("%s: a payload has %d bytes of spare capacity", name, cap(el.Sealed)-len(el.Sealed))
				}
				_ = append(el.Sealed, 0xEE, 0xEE, 0xEE, 0xEE)
			}
		}
	}
}

// TestPayloadsOutliveConcurrentWriters: readers holding payloads while
// writers insert, remove (rebuilding the slab) and snapshot the same
// lists see their bytes never change — and under the race detector, no
// writer ever touches a byte a reader may read.
func TestPayloadsOutliveConcurrentWriters(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), Options{SnapshotEvery: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const lists, writers, readers, rounds = 3, 2, 3, 60
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := range rounds {
				var ops []BatchInsert
				for i := range 20 {
					serial := uint64(w<<32 | r<<8 | i)
					ops = append(ops, BatchInsert{List: zerber.ListID(rng.Intn(lists)), Element: Element{Sealed: slabPayload(serial, 16+rng.Intn(30)), TRS: rng.Float64(), Group: rng.Intn(4)}})
				}
				if err := d.InsertBatch(ops); err != nil {
					t.Error(err)
					return
				}
				// Take most of them back out: the dead bytes pile up and
				// the slabs are rebuilt under the readers.
				var rm []BatchRemove
				for _, op := range ops[:15] {
					rm = append(rm, BatchRemove{List: op.List, Sealed: op.Element.Sealed})
				}
				if err := d.RemoveBatch(rm, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held [][]byte
			for range rounds {
				for l := range lists {
					res, err := d.Query(zerber.ListID(l), nil, 0, 50)
					if err != nil {
						continue // not created yet
					}
					for _, el := range res.Elements {
						held = append(held, el.Sealed)
					}
				}
				for _, p := range held {
					if !intactPayload(p) {
						t.Errorf("a held payload changed: %x", p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBytesPerStoredElement is the footprint gate: the heap a stored
// element costs, measured as the live heap's growth over a load of
// 98 304 44-byte payloads in the `deep` fixture's shape — 64 lists, 8
// groups, loaded group by group in batches of 4 096 — divided by the
// elements. Exact sizes would be 60 B (a 16-byte record and its
// payload); this layout measures 67.2 B. The layout before it — a
// 48-byte Element-plus-sequence record, the caller's payload kept as an
// allocation of its own — measured 104.0 B here.
func TestBytesPerStoredElement(t *testing.T) {
	const lists, groups, batch, perGroup = 64, 8, 4096, 12_288
	rng := rand.New(rand.NewSource(29))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemory()
	for g := 0; g < groups; g++ {
		for done := 0; done < perGroup; done += batch {
			ops := make([]BatchInsert, min(batch, perGroup-done))
			for i := range ops {
				sealed := make([]byte, 44)
				rng.Read(sealed)
				ops[i] = BatchInsert{List: zerber.ListID(rng.Intn(lists)), Element: Element{Sealed: sealed, TRS: rng.Float64(), Group: g}}
			}
			if err := m.InsertBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	perElement := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (groups * perGroup)
	t.Logf("%.1f B per stored element", perElement)
	if perElement > 72 {
		t.Errorf("%.1f B per stored element, gate 72", perElement)
	}
}
