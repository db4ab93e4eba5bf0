package store

// Tests for the bucket and interior-node caches behind proved reads.
// The oracle throughout is the cache-less half of internal/proof —
// TreeRoot and RangeProof over freshly hashed buckets — which shares
// the traversal with the cached tree but none of its state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// bucketHashes hashes a group's whole run into its buckets afresh.
func (ml *mergedList) bucketHashes(run []rec) []proof.Hash {
	var b proof.Bucketer
	var out []proof.Hash
	for _, r := range run {
		if h, ok := b.Add(r.trs, ml.payload(r)); ok {
			out = append(out, h)
		}
	}
	if h, ok := b.Flush(); ok {
		out = append(out, h)
	}
	return out
}

// checkCommitState holds every committed group of the list to the
// oracle without changing anything: the cached buckets are a prefix of
// the run's (all of them once the root is valid), a root marked valid
// is the root, and whatever prefix the cache still covers answers
// exactly as no cache would.
func checkCommitState(t *testing.T, rng *rand.Rand, ml *mergedList, step int) {
	t.Helper()
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for gid, g := range ml.groups {
		c := g.commit
		if c == nil {
			continue
		}
		buckets := ml.bucketHashes(g.sorted)
		if len(c.buckets) > len(buckets) || !slices.Equal(c.buckets, buckets[:len(c.buckets)]) ||
			c.rootOK && len(c.buckets) != len(buckets) {
			t.Fatalf("step %d group %d: cached buckets are not the run's", step, gid)
		}
		root := proof.TreeRoot(buckets)
		if c.rootOK && c.root != root {
			t.Fatalf("step %d group %d: root marked valid is stale", step, gid)
		}
		if got := c.tree.Root(buckets); got != root {
			t.Fatalf("step %d group %d: cached tree root differs from TreeRoot", step, gid)
		}
		if n := len(buckets); n > 0 {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			if !reflect.DeepEqual(c.tree.RangeProof(buckets, lo, hi), proof.RangeProof(buckets, lo, hi)) {
				t.Fatalf("step %d group %d: cached proof of [%d,%d) differs from RangeProof", step, gid, lo, hi)
			}
		}
	}
}

// checkProvedAgainstStateless is verifyProved plus the byte-for-byte
// half: every proved group's root and path are what the stateless
// functions produce from the group's run.
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
		buckets := ml.bucketHashes(ml.groups[gw.Group].sorted)
		if *gw.Root != proof.TreeRoot(buckets) {
			t.Fatalf("step %d group %d: served root differs from TreeRoot", step, gw.Group)
		}
		lo, hi := gw.Start-len(gw.Pred), gw.End+len(gw.Succ)
		lb, hb := lo/proof.BucketSize, proof.NumBuckets(hi)
		if !reflect.DeepEqual(gw.Path, proof.RangeProof(buckets, lb, hb)) {
			t.Fatalf("step %d group %d: served path for buckets [%d,%d) differs from RangeProof", step, gw.Group, lb, hb)
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

// TestMutationTruncatesCacheAtItsRank: what a write costs the next
// audit is decided by where the store truncates the cache. An insert
// keeps the cache over the ranks before the one it landed at (a batch,
// before the first one any of its elements landed at), a remove over
// the ranks before the removed one — compared against a tree built
// over the old leaves and truncated at exactly that rank, so
// truncating lower (a slower next audit) fails as surely as truncating
// higher (a wrong root).
func TestMutationTruncatesCacheAtItsRank(t *testing.T) {
	const list, n = zerber.ListID(3), 200
	build := func() (*Memory, *mergedList, *groupList) {
		m := NewMemory()
		for i := 0; i < n; i++ {
			// Rank i holds score n-i: rank p is free at score n-p+0.5.
			if err := m.Insert(list, el(fmt.Sprintf("e%03d", i), float64(n-i), 0)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.QueryProved(list, nil, 0, 1); err != nil {
			t.Fatal(err)
		}
		ml := m.list(list, false)
		return m, ml, ml.groups[0]
	}
	// A change at rank p keeps the buckets and cached nodes before p's
	// bucket.
	truncatedAt := func(buckets []proof.Hash, p int) ([]proof.Hash, proof.Tree) {
		var tr proof.Tree
		tr.Extend(buckets)
		tr.Truncate(p / proof.BucketSize)
		return buckets[:p/proof.BucketSize], tr
	}
	cutAt := func(g *groupList, before []proof.Hash, p int) bool {
		buckets, tr := truncatedAt(before, p)
		return reflect.DeepEqual(g.commit.tree, tr) && slices.Equal(g.commit.buckets, buckets) && !g.commit.rootOK
	}
	newAt := func(rank int) BatchInsert {
		return BatchInsert{List: list, Element: el(fmt.Sprintf("new%03d", rank), float64(n-rank)+0.5, 0)}
	}
	for _, p := range []int{0, 1, 63, 64, 65, 128, 199, 200} {
		for _, batch := range [][]BatchInsert{
			{newAt(p)},
			// Two elements, one merge: the cache survives up to the
			// earlier one.
			{newAt(min(p+30, n)), newAt(p)},
		} {
			m, ml, g := build()
			before := append([]proof.Hash{}, g.commit.buckets...)
			if err := m.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			if !cutAt(g, before, p) {
				t.Errorf("insert of %d landing first at rank %d: cache not truncated exactly there", len(batch), p)
			}
			if got := ml.payload(g.sorted[p]); string(got) != fmt.Sprintf("new%03d", p) {
				t.Fatalf("test bug: rank %d holds %s", p, got)
			}
		}
	}
	for _, p := range []int{0, 1, 63, 64, 65, 128, 198, 199} {
		m, _, g := build()
		before := append([]proof.Hash{}, g.commit.buckets...)
		if err := m.Remove(list, []byte(fmt.Sprintf("e%03d", p)), nil); err != nil {
			t.Fatal(err)
		}
		if !cutAt(g, before, p) {
			t.Errorf("remove at rank %d: cache not truncated exactly there", p)
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
