package proof

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomLeaf is a leaf nothing else in the test produces.
func randomLeaf(rng *rand.Rand) (Hash, uint8) {
	var h Hash
	rng.Read(h[:])
	return h, uint8(1 + rng.Intn(MaxBucket))
}

// checkAgainstStateless holds a tree — whatever part of leaves its
// cache currently covers — to the cache-less functions: same root,
// same proofs, and every proof verifies.
func checkAgainstStateless(t *testing.T, rng *rand.Rand, tr *Tree, leaves Buckets, step int) {
	t.Helper()
	root := TreeRoot(leaves)
	if got := tr.Root(leaves); got != root {
		t.Fatalf("step %d: n=%d cached root differs from TreeRoot", step, leaves.Len())
	}
	if leaves.Len() == 0 {
		return
	}
	for range 2 {
		lo := rng.Intn(leaves.Len())
		hi := lo + 1 + rng.Intn(leaves.Len()-lo)
		want := RangeProof(leaves, lo, hi)
		got := tr.RangeProof(leaves, lo, hi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: n=%d [%d,%d): cached proof differs from RangeProof", step, leaves.Len(), lo, hi)
		}
		if r, _, ok := VerifyRange(leaves.Len(), lo, hi, nodesOf(leaves, lo, hi), got); !ok || r != root {
			t.Fatalf("step %d: n=%d [%d,%d): cached proof does not verify", step, leaves.Len(), lo, hi)
		}
	}
}

// TestTreeMatchesStateless drives one Tree through random inserts,
// removes and in-place changes at the head, the middle and the tail of
// its bucket sequence — the owner's Truncate/Invalidate/Extend
// protocol, with Extend skipped on some steps so partly covered caches
// and pending invalidations are read too — and checks it against the
// stateless oracle after every step.
func TestTreeMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var tr Tree
	var leaves Buckets
	pick := func(n int) int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return n - 1
		}
		return rng.Intn(n)
	}
	for step := 0; step < 3000; step++ {
		n := leaves.Len()
		switch op := rng.Intn(100); {
		case op < 40 || n == 0: // insert
			p := rng.Intn(n + 1)
			if rng.Intn(2) == 0 {
				p = n
			}
			h, s := randomLeaf(rng)
			leaves.Hashes = slices.Insert(leaves.Hashes, p, h)
			leaves.Sizes = slices.Insert(leaves.Sizes, p, s)
			tr.Truncate(p)
		case op < 75: // remove
			p := pick(n)
			leaves.Hashes = slices.Delete(leaves.Hashes, p, p+1)
			leaves.Sizes = slices.Delete(leaves.Sizes, p, p+1)
			tr.Truncate(p)
		case op < 99: // change in place
			for range 1 + rng.Intn(3) {
				p := pick(n)
				leaves.Hashes[p], leaves.Sizes[p] = randomLeaf(rng)
				tr.Invalidate(p)
			}
		default: // a burst at the tail, so the tree is deep enough to have upper levels
			for range 32 {
				h, s := randomLeaf(rng)
				leaves.Hashes = append(leaves.Hashes, h)
				leaves.Sizes = append(leaves.Sizes, s)
			}
		}
		// A Tree is read only after an Extend that follows its last
		// Invalidate: until then the invalidated entries are stale.
		if rng.Intn(3) > 0 || len(tr.dirty) > 0 {
			tr.Extend(leaves)
		}
		checkAgainstStateless(t, rng, &tr, leaves, step)
	}
}

// TestTreeTruncationBoundary pins what a mutation at index p costs:
// Truncate(p) keeps levels[j][i] exactly for (i+1)×4^h <= p, and the
// next Extend rebuilds everything beyond that prefix without touching
// the prefix; Invalidate(p) keeps every entry but those over p, and the
// next Extend recomputes exactly those. Each p runs twice: clean, where
// the re-extended cache must equal a fresh build's entry for entry; and
// with the kept entries poisoned beforehand, where the poison must
// survive — an Extend that recomputed a kept entry would heal it.
func TestTreeTruncationBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	var leaves Buckets
	for range n {
		h, s := randomLeaf(rng)
		leaves.Hashes = append(leaves.Hashes, h)
		leaves.Sizes = append(leaves.Sizes, s)
	}
	poison := Node{Count: 1, Root: Hash{0xde, 0xad}}
	for _, inPlace := range []bool{false, true} {
		for _, p := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 511, 512, 640, 768, 999, 1000} {
			if inPlace && p == n {
				continue
			}
			// Replace the leaf at p (or append one when p == n): the
			// sequence changes from p on, or only at p.
			mutated := Buckets{Hashes: slices.Clone(leaves.Hashes), Sizes: slices.Clone(leaves.Sizes)}
			h, s := randomLeaf(rng)
			if p == n {
				mutated.Hashes, mutated.Sizes = append(mutated.Hashes, h), append(mutated.Sizes, s)
			} else {
				mutated.Hashes[p], mutated.Sizes[p] = h, s
			}
			var fresh Tree
			fresh.Extend(mutated)
			for _, poisoned := range []bool{false, true} {
				var tr Tree
				tr.Extend(leaves)
				if len(tr.levels) == 0 || len(tr.levels[0]) != n>>(logArity*cacheFloor) {
					t.Fatalf("a full build holds %d levels", len(tr.levels))
				}
				kept := func(j, i int) bool {
					s := logArity * (cacheFloor + j)
					if inPlace {
						return i != p>>s
					}
					return (i+1)<<s <= p
				}
				if poisoned {
					for j := range tr.levels {
						for i := range tr.levels[j] {
							if kept(j, i) {
								tr.levels[j][i] = poison
							}
						}
					}
				}
				if inPlace {
					tr.Invalidate(p)
				} else {
					tr.Truncate(p)
					for j, lv := range tr.levels {
						if want := p >> (logArity * (cacheFloor + j)); len(lv) != want {
							t.Fatalf("p=%d: Truncate kept %d entries of level %d, want %d", p, len(lv), j, want)
						}
					}
				}
				tr.Extend(mutated)
				if len(tr.levels) != len(fresh.levels) {
					t.Fatalf("p=%d: %d levels after re-extending, a fresh build has %d", p, len(tr.levels), len(fresh.levels))
				}
				for j := range fresh.levels {
					if len(tr.levels[j]) != len(fresh.levels[j]) {
						t.Fatalf("p=%d level %d: %d entries, a fresh build has %d", p, j, len(tr.levels[j]), len(fresh.levels[j]))
					}
					for i, want := range fresh.levels[j] {
						switch got := tr.levels[j][i]; {
						case !poisoned && got != want:
							t.Fatalf("p=%d in place=%v: level %d entry %d is stale after re-extending", p, inPlace, j, i)
						case poisoned && kept(j, i) && got != poison:
							t.Fatalf("p=%d in place=%v: level %d entry %d lies off the mutation but was recomputed", p, inPlace, j, i)
						}
					}
				}
			}
		}
	}
}

// TestTreeCacheSizedExactly: the cache is memory per committed
// element, so a level holds no growth slack after a full build.
func TestTreeCacheSizedExactly(t *testing.T) {
	var tr Tree
	tr.Extend(goldenLeaves(1000))
	entries := 0
	for j, lv := range tr.levels {
		if cap(lv) != len(lv) {
			t.Errorf("level %d: cap %d for %d entries", j, cap(lv), len(lv))
		}
		entries += len(lv)
	}
	if limit := 1000 / (3 << (logArity * (cacheFloor - 1))); entries >= limit {
		t.Errorf("%d cached nodes for 1000 leaves, want < %d (a third of a node per leaf at floor 1)", entries, limit)
	}
}

// TestVerifyRangeHostileCount: the leaf count is whatever a server
// claims. The verifier's recursion follows the tree shape, whose depth
// is at most ceil(log4 n) — 32 for the largest int — so a hostile
// count costs at most three path nodes per level, never a walk of n.
func TestVerifyRangeHostileCount(t *testing.T) {
	leaf := []Node{{Count: 1, Root: leafOf(1, []byte("x"))}}
	for _, n := range []int{math.MaxInt, math.MaxInt - 1, 1<<62 + 1, 1 << 62, 1<<31 + 7} {
		for _, lo := range []int{0, 1, n / 2, n - 1} {
			// A single leaf's proof holds one to three nodes per level of
			// its branch: walk lengths until the shape is satisfied.
			fits := -1
			for d := 0; d <= (arity-1)*depth(n); d++ {
				path := make([]Node, d)
				for i := range path {
					path[i].Count = 1
				}
				if _, _, ok := VerifyRange(n, lo, lo+1, leaf, path); ok {
					fits = d
					break
				}
			}
			if fits < 0 || depth(n) > 32 {
				t.Errorf("n=%d lo=%d: no path of up to %d nodes fits the shape", n, lo, (arity-1)*depth(n))
			}
		}
	}
	if _, _, ok := VerifyRange(math.MaxInt, math.MaxInt-1, math.MaxInt, leaf, nil); ok {
		t.Error("a 2^63-leaf tree verified with an empty path")
	}
	// Counts of maxCount each would sum past it within one node: the
	// verifier refuses the node rather than let the sum grow.
	path := []Node{{Count: maxCount, Root: Hash{1}}, {Count: maxCount, Root: Hash{2}}}
	if _, _, ok := VerifyRange(3, 0, 1, leaf, path); ok {
		t.Error("a node counting more than maxCount elements accepted")
	}
}

// TestVerifyRangeOverflowingCounts: hostile counts refuse a proof, and
// never crash the verifier. Path nodes of maxCount elements each, on
// both sides of a range in the middle of a 1 024-bucket tree, would
// push the sums along the nodes straddling the range past what a
// node's count varint was sized for by the third level; two sibling
// nodes counting -1 would each take a ten-byte varint.
func TestVerifyRangeOverflowingCounts(t *testing.T) {
	const n, lo, hi = 1024, 500, 505
	l := leaves(n)
	in := nodesOf(l, lo, hi)
	honest := RangeProof(l, lo, hi)
	if _, _, ok := VerifyRange(n, lo, hi, in, honest); !ok {
		t.Fatal("honest proof refused")
	}
	full := slices.Clone(honest)
	for i := range full {
		full[i].Count = maxCount
	}
	if _, _, ok := VerifyRange(n, lo, hi, in, full); ok {
		t.Error("path nodes of maxCount elements each accepted")
	}
	for i := 0; i+1 < len(honest); i++ {
		neg := slices.Clone(honest)
		neg[i].Count, neg[i+1].Count = -1, -1
		if _, _, ok := VerifyRange(n, lo, hi, in, neg); ok {
			t.Errorf("path nodes %d and %d counting -1 accepted", i, i+1)
		}
	}
	bad := slices.Clone(in)
	bad[0].Count, bad[1].Count = -1, -1
	if _, _, ok := VerifyRange(n, lo, hi, bad, honest); ok {
		t.Error("range buckets counting -1 accepted")
	}
}

// FuzzRangeProof: VerifyRange accepts the honest multiproof of the
// buckets that hold any element range [lo, hi) of any run of up to
// 1 200 elements — ranges that start and end inside a bucket or on its
// boundary, the buckets rebuilt from the run's elements — and refuses
// it after any one mutation — a bit of a path node's root flipped, a
// node dropped, one inserted, two unequal ones swapped, or a node's
// count moved by one: it reports the proof malformed or rebuilds
// another root or position. (n, lo, hi) are reduced into range, i and
// j pick the nodes and the bit.
func FuzzRangeProof(f *testing.F) {
	const maxN = 1200
	run := goldenRun(maxN)
	for op := range uint8(5) {
		f.Add(uint16(40), uint16(8), uint16(11), op, uint16(0), uint16(1))
		f.Add(uint16(41), uint16(9), uint16(13), op, uint16(0), uint16(1))
		f.Add(uint16(1199), uint16(400), uint16(122), op, uint16(3), uint16(200))
		f.Add(uint16(255), uint16(62), uint16(6), op, uint16(1), uint16(7))
	}
	f.Fuzz(func(t *testing.T, n, lo, hi uint16, op uint8, i, j uint16) {
		nn := 1 + int(n)%maxN
		l := int(lo) % nn
		h := l + 1 + int(hi)%(nn-l)
		leaves := bucketsOf(run[:nn])
		bucketOf := func(p int) int {
			b, at := 0, 0
			for at+int(leaves.Sizes[b]) <= p {
				at += int(leaves.Sizes[b])
				b++
			}
			return b
		}
		lb, hb := bucketOf(l), bucketOf(h-1)+1
		inRange := nodesOf(leaves, lb, hb)
		root := TreeRoot(leaves)
		path := RangeProof(leaves, lb, hb)
		at := sizesBefore(leaves, lb)
		if r, before, ok := VerifyRange(leaves.Len(), lb, hb, inRange, path); !ok || r != root || before != at {
			t.Fatalf("n=%d [%d,%d): the honest proof does not verify", nn, l, h)
		}
		bad := slices.Clone(path)
		switch op % 5 {
		case 0: // flip one bit of one root
			if len(bad) == 0 {
				return
			}
			bad[int(i)%len(bad)].Root[int(j)%HashSize] ^= 1 << (j % 8)
		case 1: // drop one node
			if len(bad) == 0 {
				return
			}
			bad = slices.Delete(bad, int(i)%len(bad), int(i)%len(bad)+1)
		case 2: // insert a leaf of the tree as one more node
			bad = slices.Insert(bad, int(i)%(len(bad)+1), leaves.node(int(j)%leaves.Len()))
		case 3: // swap two unequal nodes
			if len(bad) < 2 {
				return
			}
			a, b := int(i)%len(bad), int(j)%len(bad)
			if bad[a] == bad[b] {
				return
			}
			bad[a], bad[b] = bad[b], bad[a]
		case 4: // move one node's count by one
			if len(bad) == 0 {
				return
			}
			bad[int(i)%len(bad)].Count += 1 - 2*int(j%2)
		}
		if r, before, ok := VerifyRange(leaves.Len(), lb, hb, inRange, bad); ok && r == root && before == at {
			t.Fatalf("n=%d [%d,%d): mutation %d of the proof verified", nn, l, h, op%5)
		}
	})
}
