package proof

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomLeaf is a leaf hash nothing else in the test produces.
func randomLeaf(rng *rand.Rand) Hash {
	var h Hash
	rng.Read(h[:])
	return h
}

// checkAgainstStateless holds a tree — whatever part of leaves its
// cache currently covers — to the cache-less functions: same root,
// same proofs, and every proof verifies.
func checkAgainstStateless(t *testing.T, rng *rand.Rand, tr *Tree, leaves []Hash, step int) {
	t.Helper()
	root := TreeRoot(leaves)
	if got := tr.Root(leaves); got != root {
		t.Fatalf("step %d: n=%d cached root differs from TreeRoot", step, len(leaves))
	}
	if len(leaves) == 0 {
		return
	}
	for range 2 {
		lo := rng.Intn(len(leaves))
		hi := lo + 1 + rng.Intn(len(leaves)-lo)
		want := RangeProof(leaves, lo, hi)
		got := tr.RangeProof(leaves, lo, hi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: n=%d [%d,%d): cached proof differs from RangeProof", step, len(leaves), lo, hi)
		}
		if r, ok := VerifyRange(len(leaves), lo, hi, leaves[lo:hi], got); !ok || r != root {
			t.Fatalf("step %d: n=%d [%d,%d): cached proof does not verify", step, len(leaves), lo, hi)
		}
	}
}

// TestTreeMatchesStateless drives one Tree through random inserts and
// removes at the head, the middle and the tail of its leaf sequence —
// the owner's Truncate/Extend protocol, with Extend skipped on some
// steps so partly covered caches are read too — and checks it against
// the stateless oracle after every step.
func TestTreeMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var tr Tree
	var leaves []Hash
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(100); {
		case op < 50 || len(leaves) == 0: // insert
			p := rng.Intn(len(leaves) + 1)
			switch rng.Intn(4) {
			case 0:
				p = 0
			case 1:
				p = len(leaves)
			}
			leaves = append(leaves, Hash{})
			copy(leaves[p+1:], leaves[p:])
			leaves[p] = randomLeaf(rng)
			tr.Truncate(p)
		case op < 99: // remove
			p := rng.Intn(len(leaves))
			switch rng.Intn(4) {
			case 0:
				p = 0
			case 1:
				p = len(leaves) - 1
			}
			leaves = append(leaves[:p], leaves[p+1:]...)
			tr.Truncate(p)
		default: // a burst at the tail, so the tree is deep enough to have upper levels
			for range 32 {
				leaves = append(leaves, randomLeaf(rng))
			}
		}
		if rng.Intn(3) > 0 {
			tr.Extend(leaves)
		}
		checkAgainstStateless(t, rng, &tr, leaves, step)
	}
}

// TestTreeTruncationBoundary pins what a mutation at index p costs:
// Truncate(p) keeps levels[j][i] exactly for (i+1)×4^h <= p, and the
// next Extend rebuilds everything beyond that prefix without touching
// the prefix. Each p runs twice: clean, where the re-extended cache
// must equal a fresh build's entry for entry; and with the kept prefix
// poisoned beforehand, where the poison must survive — an Extend that
// recomputed a kept entry would heal it.
func TestTreeTruncationBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = randomLeaf(rng)
	}
	poison := Hash{0xde, 0xad}
	for _, p := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 511, 512, 640, 768, 999, 1000} {
		// Replace the leaf at p (or append one when p == n): the
		// sequence changes from p on.
		mutated := append([]Hash{}, leaves...)
		if p == n {
			mutated = append(mutated, randomLeaf(rng))
		} else {
			mutated[p] = randomLeaf(rng)
		}
		var fresh Tree
		fresh.Extend(mutated)
		for _, poisoned := range []bool{false, true} {
			var tr Tree
			tr.Extend(leaves)
			if len(tr.levels) == 0 || len(tr.levels[0]) != n>>(logArity*cacheFloor) {
				t.Fatalf("a full build holds %d levels", len(tr.levels))
			}
			kept := func(j, i int) bool { return (i+1)<<(logArity*(cacheFloor+j)) <= p }
			if poisoned {
				for j := range tr.levels {
					for i := range tr.levels[j] {
						if kept(j, i) {
							tr.levels[j][i] = poison
						}
					}
				}
			}
			tr.Truncate(p)
			for j, lv := range tr.levels {
				if want := p >> (logArity * (cacheFloor + j)); len(lv) != want {
					t.Fatalf("p=%d: Truncate kept %d entries of level %d, want %d", p, len(lv), j, want)
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
						t.Fatalf("p=%d: level %d entry %d is stale after re-extending", p, j, i)
					case poisoned && kept(j, i) && got != poison:
						t.Fatalf("p=%d: level %d entry %d lies before the mutation but was recomputed", p, j, i)
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
		t.Errorf("%d cached nodes for 1000 leaves, want < %d (32 B / (3 × 4^(cacheFloor-1)) per leaf)", entries, limit)
	}
}

// TestVerifyRangeHostileCount: the leaf count is whatever a server
// claims. The verifier's recursion follows the tree shape, whose depth
// is at most ceil(log4 n) — 32 for the largest int — so a hostile
// count costs at most three path hashes per level, never a walk of n.
func TestVerifyRangeHostileCount(t *testing.T) {
	leaf := []Hash{leafOf(1, []byte("x"))}
	for _, n := range []int{math.MaxInt, math.MaxInt - 1, 1<<62 + 1, 1 << 62, 1<<31 + 7} {
		for _, lo := range []int{0, 1, n / 2, n - 1} {
			// A single leaf's proof holds one to three hashes per level
			// of its branch: walk lengths until the shape is satisfied.
			fits := -1
			for d := 0; d <= (arity-1)*depth(n); d++ {
				if _, ok := VerifyRange(n, lo, lo+1, leaf, make([]Hash, d)); ok {
					fits = d
					break
				}
			}
			if fits < 0 || depth(n) > 32 {
				t.Errorf("n=%d lo=%d: no path of up to %d hashes fits the shape", n, lo, (arity-1)*depth(n))
			}
		}
	}
	if _, ok := VerifyRange(math.MaxInt, math.MaxInt-1, math.MaxInt, leaf, nil); ok {
		t.Error("a 2^63-leaf tree verified with an empty path")
	}
}

// FuzzRangeProof: VerifyRange accepts the honest multiproof of the
// buckets that hold any element range [lo, hi) of any run of up to 1 200
// elements — ranges that start and end inside a bucket or on its
// boundary, the buckets rebuilt from the run's elements — and refuses it
// after any one mutation — a bit of a path hash flipped, a hash dropped,
// one inserted, or two unequal ones swapped: it reports the proof
// malformed or rebuilds another root. (n, lo, hi) are reduced into
// range, i and j pick the hashes and the bit.
func FuzzRangeProof(f *testing.F) {
	const maxN = 1200
	run := goldenRun(maxN)
	for op := range uint8(4) {
		f.Add(uint16(40), uint16(8), uint16(11), op, uint16(0), uint16(1)) // bucket-aligned
		f.Add(uint16(41), uint16(9), uint16(13), op, uint16(0), uint16(1)) // inside buckets
		f.Add(uint16(1199), uint16(400), uint16(122), op, uint16(3), uint16(200))
		f.Add(uint16(255), uint16(62), uint16(6), op, uint16(1), uint16(7))
	}
	f.Fuzz(func(t *testing.T, n, lo, hi uint16, op uint8, i, j uint16) {
		nn := 1 + int(n)%maxN
		l := int(lo) % nn
		h := l + 1 + int(hi)%(nn-l)
		leaves := bucketsOf(run[:nn])
		lb, hb := l/BucketSize, NumBuckets(h)
		inRange := bucketsOf(run[lb*BucketSize : min(hb*BucketSize, nn)])
		root := TreeRoot(leaves)
		path := RangeProof(leaves, lb, hb)
		if r, ok := VerifyRange(len(leaves), lb, hb, inRange, path); !ok || r != root {
			t.Fatalf("n=%d [%d,%d): the honest proof does not verify", nn, l, h)
		}
		bad := slices.Clone(path)
		switch op % 4 {
		case 0: // flip one bit of one hash
			if len(bad) == 0 {
				return
			}
			bad[int(i)%len(bad)][int(j)%HashSize] ^= 1 << (j % 8)
		case 1: // drop one hash
			if len(bad) == 0 {
				return
			}
			bad = slices.Delete(bad, int(i)%len(bad), int(i)%len(bad)+1)
		case 2: // insert a leaf of the tree as one more hash
			bad = slices.Insert(bad, int(i)%(len(bad)+1), leaves[int(j)%len(leaves)])
		case 3: // swap two unequal hashes
			if len(bad) < 2 {
				return
			}
			a, b := int(i)%len(bad), int(j)%len(bad)
			if bad[a] == bad[b] {
				return
			}
			bad[a], bad[b] = bad[b], bad[a]
		}
		if r, ok := VerifyRange(len(leaves), lb, hb, inRange, bad); ok && r == root {
			t.Fatalf("n=%d [%d,%d): mutation %d of the proof verified", nn, l, h, op%4)
		}
	})
}
