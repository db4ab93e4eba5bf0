package proof

import (
	"math"
	"math/rand"
	"reflect"
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
// Truncate(p) keeps levels[j][i] exactly for (i+1)<<h <= p, and the
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
	for _, p := range []int{0, 1, 7, 8, 9, 255, 256, 257, 511, 512, 640, 999, 1000} {
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
			if len(tr.levels) == 0 || len(tr.levels[0]) != n>>cacheFloor {
				t.Fatalf("a full build holds %d levels", len(tr.levels))
			}
			kept := func(j, i int) bool { return (i+1)<<(cacheFloor+j) <= p }
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
				if want := p >> (cacheFloor + j); len(lv) != want {
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
	if limit := 1000 >> (cacheFloor - 1); entries >= limit {
		t.Errorf("%d cached nodes for 1000 leaves, want < %d (32 B >> (cacheFloor-1) per leaf)", entries, limit)
	}
}

// TestVerifyRangeHostileCount: the leaf count is whatever a server
// claims. The verifier's recursion follows the tree shape, whose depth
// is at most the bit length of n — 63 for the largest int — so a
// hostile count costs one path hash per level, never a walk of n.
func TestVerifyRangeHostileCount(t *testing.T) {
	leaf := []Hash{LeafHash(1, []byte("x"))}
	for _, n := range []int{math.MaxInt, math.MaxInt - 1, 1<<62 + 1, 1 << 62, 1<<31 + 7} {
		for _, lo := range []int{0, 1, n / 2, n - 1} {
			// A single leaf's proof holds one hash per level of its
			// branch: walk lengths until the shape is satisfied.
			depth := -1
			for d := 0; d <= 64; d++ {
				if _, ok := VerifyRange(n, lo, lo+1, leaf, make([]Hash, d)); ok {
					depth = d
					break
				}
			}
			if depth < 0 {
				t.Errorf("n=%d lo=%d: no path of up to 64 hashes fits the shape", n, lo)
			}
		}
	}
	if _, ok := VerifyRange(math.MaxInt, math.MaxInt-1, math.MaxInt, leaf, nil); ok {
		t.Error("a 2^63-leaf tree verified with an empty path")
	}
}
