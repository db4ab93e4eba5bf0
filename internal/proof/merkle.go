package proof

import (
	"crypto/sha256"
	"math/bits"
)

// The tree is four-ary over the buckets of a group's run (proof.go), one
// leaf per bucket: a tree over n > 1 leaves has a child over each
// consecutive run of w leaves, w the largest power of four strictly
// below n, the last run possibly shorter — two to four children; a
// single leaf is its own root. A node hashes H(0x01 || its children's
// roots): a full node is 129 bytes, three SHA-256 blocks, where a
// binary tree spends three 65-byte nodes of two blocks each on the same
// four children. The shape is a pure function of n, so prover and
// verifier agree on it from the leaf count alone, and a contiguous leaf
// range [lo, hi) has exactly one multiproof: the roots of the maximal
// subtrees disjoint from the range, in traversal (left-to-right) order
// — at most 2 × 3 per level. A node whose width is a power of four
// starts at a multiple of that width: it is a complete aligned subtree.

// logArity is log2 of the tree's arity: a constant of the format.
const (
	logArity = 2
	arity    = 1 << logArity
)

// splitPoint returns the width of every child but the last of a node
// over n >= 2 leaves: the largest power of four strictly less than n.
func splitPoint(n int) int {
	return 1 << ((bits.Len(uint(n-1)) - 1) / logArity * logArity)
}

// depth is the number of interior levels of an n-leaf tree:
// ceil(log4 n), 0 for a single leaf.
func depth(n int) int {
	return (bits.Len(uint(n-1)) + logArity - 1) / logArity
}

// emptyRoot is the root of a tree with no leaves: H(0x01) — no real
// interior node hashes a lone domain byte, so it collides with
// nothing. Commitments omit empty groups, so it never appears inside
// a header in practice; it exists so TreeRoot is total.
func emptyRoot() Hash {
	return Hash(sha256.Sum256([]byte{domainNode}))
}

// TreeRoot computes the root over the full leaf slice from the leaves
// alone: the cache-less case of Tree.Root, and the oracle a cached
// tree is tested against.
func TreeRoot(leaves []Hash) Hash {
	var t Tree
	return t.Root(leaves)
}

// RangeProof returns the multiproof for the contiguous leaf range
// [lo, hi) from the leaves alone, O(n) hashes: the cache-less case of
// Tree.RangeProof. Requires 0 <= lo < hi <= len(leaves).
func RangeProof(leaves []Hash, lo, hi int) []Hash {
	var t Tree
	return t.RangeProof(leaves, lo, hi)
}

// cacheFloor is the height of the lowest cached level: a Tree keeps
// the roots of complete aligned subtrees of 4^cacheFloor leaves and
// up, and recomputes anything smaller from the leaves. Each level is a
// quarter of the one below, so the cache costs 32 B / (3 × 4^(cacheFloor-1))
// per leaf on top of the 32 B leaf itself — a leaf is a bucket of four
// elements, so a quarter of that per element — and a proof pays a few
// extra hashes per side of its range for what the floor leaves out. A
// constant, not a knob: every proved window pays for the floor, and the
// 4-leaf one costs 2 B per element more than the 16-leaf one and a
// tenth less per proof; a write pays the floor once, and the 4-leaf one
// costs it 3 % more. Measured on one box (microbench legs, 2 cores, the
// 120k-element list; floors 1 and 2 medians of 4 runs interleaved,
// floor 3 a median of 3 from an earlier session):
//
//	floor  leaves (elements)  cache B/element  ProofQuery/proved  /after-write
//	1      4 (16)             2.7              0.351 ms           1.354 ms
//	2      16 (64)            0.7              0.392 ms           1.310 ms
//	3      64 (256)           0.2              0.443 ms           1.291 ms
const cacheFloor = 1

// Tree caches the interior nodes of one leaf sequence's Merkle tree so
// that roots and range proofs cost O(log n) instead of O(n) hashes.
// It holds no leaves: every method takes the sequence, and the cache
// is only ever a statement about a prefix of it.
//
// What is cached is the roots of complete aligned subtrees —
// levels[j][i] is the root over leaves [i×4^h, (i+1)×4^h) for
// h = cacheFloor+j. Every node off the tree's right edge is such a
// subtree, and which leaves it spans does not depend on n, so an entry
// stays valid while the sequence grows or shrinks at its tail. The
// ragged right edge (O(log n) nodes) is never cached and is re-hashed
// per call.
//
// The owner keeps the cache honest with two calls: Truncate(p) after
// any change to the sequence at or beyond index p — leaves are
// position-indexed, so an insert or remove at p shifts every later
// leaf and nothing cached over [p, n) survives — and Extend to
// re-cover the sequence before reading. The zero Tree caches nothing
// and computes everything from the leaves. Not safe for concurrent
// use.
type Tree struct {
	levels [][]Hash
}

// Truncate drops every cached subtree that reaches leaf index p or
// beyond, keeping exactly the entries over [0, p).
func (t *Tree) Truncate(p int) {
	for j, lv := range t.levels {
		if keep := p >> (logArity * (cacheFloor + j)); keep < len(lv) {
			t.levels[j] = lv[:keep]
		}
	}
}

// Extend caches every complete aligned subtree of leaves that is not
// cached yet: the hashes of a full build on a fresh Tree, only those
// over [p, n) after Truncate(p).
func (t *Tree) Extend(leaves []Hash) {
	n := len(leaves)
	for j := 0; 1<<(logArity*(cacheFloor+j)) <= n; j++ {
		if j == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		s := logArity * (cacheFloor + j)
		lv, want := t.levels[j], n>>s
		if want > cap(lv) {
			// Sized exactly: the cache is per committed element, and
			// append's growth slack would be a quarter of it.
			lv = append(make([]Hash, 0, want), lv...)
		}
		for i := len(lv); i < want; i++ {
			// One hash of four entries of the level below, which is
			// complete by now; the lowest level hashes up from its leaves.
			lv = append(lv, t.subRoot(leaves, i<<s, (i+1)<<s))
		}
		t.levels[j] = lv
	}
}

// Root returns the tree root over leaves.
func (t *Tree) Root(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return emptyRoot()
	}
	return t.subRoot(leaves, 0, len(leaves))
}

// subRoot returns the root of the subtree spanning leaves [a, b), a
// node of the tree over leaves: from the cache when it is a cached
// complete subtree, else from its children.
func (t *Tree) subRoot(leaves []Hash, a, b int) Hash {
	w := b - a
	if w == 1 {
		return leaves[a]
	}
	// A node whose width is a power of four is complete and aligned, so
	// its index within its level is a >> log2(width).
	if s := bits.TrailingZeros(uint(w)); w&(w-1) == 0 && s%logArity == 0 {
		if j := s/logArity - cacheFloor; j >= 0 && j < len(t.levels) && a>>s < len(t.levels[j]) {
			return t.levels[j][a>>s]
		}
	}
	var kids [arity]Hash
	c := 0
	for x, k := a, splitPoint(w); x < b; x += min(k, b-x) {
		kids[c] = t.subRoot(leaves, x, x+min(k, b-x))
		c++
	}
	return interiorHash(kids[:c]...)
}

// RangeProof returns the multiproof for the contiguous leaf range
// [lo, hi) of leaves: the subtree roots a verifier holding only the
// range's leaves needs to rebuild the full root. With the cache
// covering leaves that is O(log n) look-ups plus the right edge's
// O(log n) hashes, at most 2(arity-1) per level: the path is sized for
// that once. Requires 0 <= lo < hi <= len(leaves).
func (t *Tree) RangeProof(leaves []Hash, lo, hi int) []Hash {
	var out []Hash
	if lo > 0 || hi < len(leaves) {
		out = make([]Hash, 0, 2*(arity-1)*depth(len(leaves)))
	}
	return t.rangeProofStep(leaves, 0, len(leaves), lo, hi, out)
}

func (t *Tree) rangeProofStep(leaves []Hash, a, b, lo, hi int, out []Hash) []Hash {
	if a >= hi || b <= lo {
		// Disjoint from the range: one opaque subtree root.
		return append(out, t.subRoot(leaves, a, b))
	}
	if lo <= a && b <= hi {
		// Inside the range: the verifier rebuilds this from its leaves.
		return out
	}
	for x, k := a, splitPoint(b-a); x < b; x += min(k, b-x) {
		out = t.rangeProofStep(leaves, x, x+min(k, b-x), lo, hi, out)
	}
	return out
}

// VerifyRange rebuilds the root of an n-leaf tree from the leaves of
// the contiguous range [lo, hi) plus a RangeProof for it, reporting
// whether the reconstruction is well-formed (the proof holds exactly
// the hashes the shape demands — no more, no fewer). The caller
// compares the returned root against the committed one.
func VerifyRange(n, lo, hi int, rangeLeaves, path []Hash) (Hash, bool) {
	if lo < 0 || hi > n || lo >= hi || hi-lo != len(rangeLeaves) {
		return Hash{}, false
	}
	v := &rangeVerifier{leaves: rangeLeaves, path: path, lo: lo, hi: hi}
	return v.root(n)
}

// rangeVerifier mirrors rangeProofStep's traversal, consuming proof
// hashes where the prover emitted them and range leaves inside the
// range. The hashes of the subtrees disjoint from the range come, in
// traversal order, from left, then path, then tail: a full proof has
// them all in path; a continuation's verifier (window.go) seeds left
// with the subtree roots covering [0, lo) and tail with the right-path
// hashes the previous window's proof already carried, and path holds
// the rest. A range may be empty only at the tree's end (lo = hi = n),
// where left holds the root.
//
// With record set, the traversal also appends to out the subtree roots
// covering [0, end) — a range's frontier, which are the children wholly
// before end of the nodes straddling end, or the root when end = n —
// followed by the subtree roots covering [hi, n), its right path: what
// the next window of a scan continues from. It counts the first part in
// nLeft.
type rangeVerifier struct {
	leaves           []Hash
	left, path, tail []Hash
	lo, hi           int
	broken           bool

	record bool
	end    int
	out    []Hash
	nLeft  int
}

// root rebuilds the root of an n-leaf tree and reports whether every
// supplied hash was consumed exactly.
func (v *rangeVerifier) root(n int) (Hash, bool) {
	start := len(v.out)
	root := v.node(0, n)
	if v.broken || len(v.left)+len(v.path)+len(v.tail) != 0 {
		return Hash{}, false
	}
	if v.record && v.end == n {
		v.out = append(v.out[:start], root)
		v.nLeft = 1
	}
	return root, true
}

// next is the next supplied hash of a subtree disjoint from the range.
func (v *rangeVerifier) next() (h Hash) {
	switch {
	case len(v.left) > 0:
		h, v.left = v.left[0], v.left[1:]
	case len(v.path) > 0:
		h, v.path = v.path[0], v.path[1:]
	case len(v.tail) > 0:
		h, v.tail = v.tail[0], v.tail[1:]
	default:
		v.broken = true
	}
	return h
}

func (v *rangeVerifier) node(a, b int) Hash {
	if a >= v.hi || b <= v.lo {
		h := v.next()
		if v.record && a >= v.hi {
			v.out = append(v.out, h)
		}
		return h
	}
	if b-a == 1 {
		return v.leaves[a-v.lo]
	}
	var kids [arity]Hash
	c := 0
	for x, k := a, splitPoint(b-a); x < b; x += min(k, b-x) {
		y := x + min(k, b-x)
		kids[c] = v.node(x, y)
		if v.record && y <= v.end && v.end < b {
			v.out = append(v.out, kids[c])
			v.nLeft++
		}
		c++
	}
	return interiorHash(kids[:c]...)
}

// countRight counts the subtree roots of the right path of any range
// of the tree over [a, b) that ends at h — the maximal subtrees wholly
// inside [h, b) — that lie wholly inside [c, b), c >= h. With c = h it
// is the length of that right path; with h < c it is how many of its
// hashes the right path of a range ending at c shares, and they are
// the last ones of both (a maximal subtree of [h, b) inside [c, b) is
// maximal there too).
func countRight(a, b, h, c int) int {
	switch {
	case a >= h && a >= c:
		return 1
	case a >= h || b <= h:
		return 0
	}
	n := 0
	for x, k := a, splitPoint(b-a); x < b; x += min(k, b-x) {
		n += countRight(x, x+min(k, b-x), h, c)
	}
	return n
}
