package store

// Tests for the bucket and interior-node caches behind proved reads.
// The oracle throughout is the cache-less half of internal/proof —
// TreeRoot and RangeProof over freshly cut and hashed buckets — which
// shares the traversal with the cached tree but none of its state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// freshBuckets cuts and hashes a group's whole run into its buckets
// afresh.
func (ml *mergedList) freshBuckets(run []rec) proof.Buckets {
	var b proof.Bucketer
	var out proof.Buckets
	add := func(nd proof.Node) {
		out.Hashes = append(out.Hashes, nd.Root)
		out.Sizes = append(out.Sizes, uint8(nd.Count))
	}
	for _, r := range run {
		if nd, ok := b.Add(r.trs, ml.payload(r)); ok {
			add(nd)
		}
	}
	if nd, ok := b.Flush(); ok {
		add(nd)
	}
	return out
}

// checkCommitState holds every committed group of the list to the
// oracle without changing anything: the cut is the run's fresh cut,
// every bucket not marked stale carries its fresh hash, and a root
// marked valid is the root, whose tree answers exactly as no cache
// would.
func checkCommitState(t *testing.T, rng *rand.Rand, ml *mergedList, step int) {
	t.Helper()
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for gid, g := range ml.groups {
		c := g.commit
		if c == nil {
			continue
		}
		buckets := ml.freshBuckets(g.sorted)
		if len(c.sizes) != buckets.Len() || len(c.hashes) != buckets.Len() {
			t.Fatalf("step %d group %d: %d cached buckets, the run cuts into %d", step, gid, len(c.sizes), buckets.Len())
		}
		for i, s := range c.sizes {
			if s&sizeMask != buckets.Sizes[i] || s&staleBucket == 0 && c.hashes[i] != buckets.Hashes[i] {
				t.Fatalf("step %d group %d: bucket %d is not the run's", step, gid, i)
			}
		}
		if !c.rootOK {
			continue
		}
		root := proof.TreeRoot(buckets)
		if c.root != root || c.tree.Root(buckets) != root {
			t.Fatalf("step %d group %d: root marked valid is stale", step, gid)
		}
		if n := buckets.Len(); n > 0 {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			if !reflect.DeepEqual(c.tree.RangeProof(buckets, lo, hi), proof.RangeProof(buckets, lo, hi)) {
				t.Fatalf("step %d group %d: cached proof of [%d,%d) differs from RangeProof", step, gid, lo, hi)
			}
		}
	}
}

// checkProvedAgainstStateless is verifyProved plus the byte-for-byte
// half: every proved group's root, bucket range and path are what the
// stateless functions produce from the group's run.
func checkProvedAgainstStateless(t *testing.T, m *Memory, list zerber.ListID, allowed map[int]bool, offset, count, step int) {
	t.Helper()
	verifyProved(t, m, list, allowed, offset, count)
	res, err := m.QueryProved(list, allowed, offset, count)
	if err != nil {
		t.Fatal(err)
	}
	ml := m.list(list, false)
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if res.Version != ml.version {
		t.Fatalf("step %d: list moved under a single-goroutine test", step)
	}
	for _, gw := range res.Proof.Groups {
		if gw.Opaque != nil {
			continue
		}
		buckets := ml.freshBuckets(ml.groups[gw.Group].sorted)
		if *gw.Root != proof.TreeRoot(buckets).Root || gw.Buckets != buckets.Len() {
			t.Fatalf("step %d group %d: served root differs from TreeRoot", step, gw.Group)
		}
		// The range ends with the bucket holding End's element.
		hb, at := 0, 0
		for hi := gw.End + len(gw.Succ); at < hi; hb++ {
			at += int(buckets.Sizes[hb])
		}
		if !reflect.DeepEqual(gw.Path, proof.RangeProof(buckets, gw.First, hb)) {
			t.Fatalf("step %d group %d: served path for buckets [%d,%d) differs from RangeProof", step, gw.Group, gw.First, hb)
		}
	}
}

// TestProvedCacheDifferential interleaves inserts, removes (rank-first,
// rank-last, anywhere, and of the newest insert), plain and proved
// reads on one Memory, and after every step holds the commitment state
// to the stateless oracle.
func TestProvedCacheDifferential(t *testing.T) {
	const (
		list   = zerber.ListID(9)
		groups = 4
		steps  = 2500
	)
	rng := rand.New(rand.NewSource(2121))
	m := NewMemory()
	var live []Element // every stored element, unordered
	serial := 0
	insert := func() {
		serial++
		// Two-decimal scores collide often: ties are broken by payload.
		e := Element{Sealed: []byte(fmt.Sprintf("p%06d-%x", serial, rng.Uint32())), TRS: float64(rng.Intn(300)) / 100, Group: rng.Intn(groups)}
		if err := m.Insert(list, e); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
	}
	removeAt := func(i int) {
		if err := m.Remove(list, live[i].Sealed, nil); err != nil {
			t.Fatalf("Remove(%s): %v", live[i].Sealed, err)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	// extreme returns the index in live of the rank-first (or -last)
	// element.
	extreme := func(first bool) int {
		best := 0
		for i := range live {
			if Less(live[i], live[best]) == first {
				best = i
			}
		}
		return best
	}
	randomView := func() map[int]bool {
		if rng.Intn(3) == 0 {
			return nil
		}
		view := map[int]bool{}
		for g := 0; g < groups; g++ {
			if rng.Intn(2) == 0 {
				view[g] = true
			}
		}
		return view
	}
	for range 64 {
		insert()
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 35 || len(live) == 0:
			insert()
		case op < 60:
			switch rng.Intn(4) {
			case 0:
				removeAt(extreme(true))
			case 1:
				removeAt(extreme(false))
			case 2:
				removeAt(rng.Intn(len(live)))
			default:
				// The newest insert, whether or not an audit came in
				// between.
				removeAt(len(live) - 1)
			}
		case op < 70:
			// A plain read, which must leave the commitment state as it
			// found it.
			if _, err := m.Query(list, randomView(), 0, 1); err != nil {
				t.Fatal(err)
			}
		default:
			checkProvedAgainstStateless(t, m, list, randomView(), rng.Intn(len(live)+3), 1+rng.Intn(40), step)
		}
		if ml := m.list(list, false); ml != nil {
			checkCommitState(t, rng, ml, step)
		}
	}
	if n := mustLen(t, m, list); n != len(live) {
		t.Fatalf("store holds %d elements, the test's book %d", n, len(live))
	}
}

// randomElements returns n elements of one group with payloads of a
// sealed element's size and two-decimal scores.
func randomElements(rng *rand.Rand, n, group int) []Element {
	out := make([]Element, n)
	for i := range out {
		sealed := make([]byte, 44)
		rng.Read(sealed)
		out[i] = Element{Sealed: sealed, TRS: float64(rng.Intn(1000)) / 100, Group: group}
	}
	return out
}

func insertAll(t *testing.T, m *Memory, list zerber.ListID, els []Element) {
	t.Helper()
	ops := make([]BatchInsert, len(els))
	for i, e := range els {
		ops[i] = BatchInsert{List: list, Element: e}
	}
	if err := m.InsertBatch(ops); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRehashesOnlyItsBuckets: what a write costs the next audit.
// Bucket boundaries come from content, so m inserts and removes at
// random ranks of an audited group leave the next audit at most 3m + 2
// buckets to hash, however long the group — where rank-indexed buckets
// re-hashed every bucket behind the lowest write. Counted by the
// hashedBuckets hook; the state the audit leaves is held to the
// oracle.
func TestWriteRehashesOnlyItsBuckets(t *testing.T) {
	const list = zerber.ListID(4)
	hashed := 0
	hashedBuckets = func(n int) { hashed += n }
	defer func() { hashedBuckets = nil }()
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{64, 4096, 16384} {
		m := NewMemory()
		live := randomElements(rng, n, 0)
		insertAll(t, m, list, live)
		audit := func() {
			if _, err := m.QueryProved(list, nil, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		hashed = 0
		audit()
		if ml := m.list(list, false); hashed != len(ml.groups[0].commit.sizes) {
			t.Fatalf("n=%d: the first audit hashed %d buckets of %d", n, hashed, len(ml.groups[0].commit.sizes))
		}
		for _, writes := range []int{1, 2, 3, 8, 8, 32} {
			for range writes {
				if rng.Intn(2) == 0 {
					e := randomElements(rng, 1, 0)[0]
					insertAll(t, m, list, []Element{e})
					live = append(live, e)
					continue
				}
				i := rng.Intn(len(live))
				if err := m.Remove(list, live[i].Sealed, nil); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			hashed = 0
			audit()
			if hashed > 3*writes+2 {
				t.Errorf("n=%d: the audit after %d writes hashed %d buckets, bound %d", n, writes, hashed, 3*writes+2)
			}
			checkCommitState(t, rng, m.list(list, false), writes)
		}
	}
}

// TestCommitmentIsHistoryIndependent: the commitment is a function of
// the element set alone. One set reached by inserting it in one order,
// by inserting it in another with audits and other elements inserted
// and removed along the way, and by reloading a snapshot of either,
// has the same group headers and content root in every store — the
// roots a from-scratch cut of each run gives (proof.TreeRoot, which
// TestOracleShape holds to an independent builder).
func TestCommitmentIsHistoryIndependent(t *testing.T) {
	const list = zerber.ListID(6)
	rng := rand.New(rand.NewSource(1))
	var set []Element
	for g := range 3 {
		set = append(set, randomElements(rng, 150+40*g, g)...)
	}
	// Ties in score, broken by payload.
	for i := 0; i < len(set); i += 7 {
		set[i].TRS = 1
	}
	a := NewMemory()
	insertAll(t, a, list, set)

	b := NewMemory()
	order := rng.Perm(len(set))
	extra := randomElements(rng, 60, 1)
	for k, i := range order {
		insertAll(t, b, list, []Element{set[i]})
		if k%50 == 0 {
			if _, err := b.QueryProved(list, map[int]bool{1: true}, k/3, 5); err != nil {
				t.Fatal(err)
			}
		}
		if k < len(extra) {
			insertAll(t, b, list, []Element{extra[k]})
		}
		if k >= 2*len(extra) && k < 3*len(extra) {
			if err := b.Remove(list, extra[k-2*len(extra)].Sealed, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap, _, err := b.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	c := NewMemory()
	if err := c.ImportSnapshot(snap); err != nil {
		t.Fatal(err)
	}

	type state struct {
		headers []headerInfo
		content proof.Hash
	}
	stateOf := func(m *Memory) state {
		ml := m.list(list, false)
		ml.mu.Lock()
		defer ml.mu.Unlock()
		ml.ensureCommittedLocked()
		headers, content, _ := ml.commitLocked()
		for _, h := range headers {
			if want := proof.TreeRoot(ml.freshBuckets(h.g.sorted)).Root; h.root != want {
				t.Fatalf("group %d: root differs from a from-scratch cut", h.gid)
			}
		}
		return state{headers, content}
	}
	want := stateOf(a)
	for name, m := range map[string]*Memory{"another order": b, "a snapshot reload": c} {
		got := stateOf(m)
		if got.content != want.content || len(got.headers) != len(want.headers) {
			t.Fatalf("%s: content root differs", name)
		}
		for i, h := range got.headers {
			w := want.headers[i]
			if h.gid != w.gid || h.count != w.count || h.root != w.root || h.hh != w.hh {
				t.Errorf("%s: group %d header differs", name, h.gid)
			}
		}
	}
}

// TestUnauditedGroupCarriesNoCommitState: the footprint contract — a
// group list nobody audited holds one nil pointer for the whole
// commitment scheme, through inserts, reads and removes.
func TestUnauditedGroupCarriesNoCommitState(t *testing.T) {
	m := NewMemory()
	provedFixture(t, m, 1)
	if _, err := m.Query(1, nil, 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(1, []byte("a2"), nil); err != nil {
		t.Fatal(err)
	}
	for gid, g := range m.list(1, false).groups {
		if g.commit != nil {
			t.Errorf("group %d of a never-audited list carries commitment state", gid)
		}
	}
	if _, err := m.QueryProved(1, map[int]bool{1: true}, 0, 1); err != nil {
		t.Fatal(err)
	}
	for gid, g := range m.list(1, false).groups {
		if g.commit == nil {
			t.Errorf("group %d not committed by its list's first audit", gid)
		}
	}
}
