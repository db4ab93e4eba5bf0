package proof

import (
	"crypto/sha256"
	"math/bits"
	"slices"
)

// The tree is four-ary over the buckets of a group's run (proof.go), one
// leaf per bucket: a tree over n > 1 leaves has a child over each
// consecutive run of w leaves, w the largest power of four strictly
// below n, the last run possibly shorter — two to four children; a
// single leaf is its own root. A node is counted: it hashes
// H(0x01 || per child: uvarint(count) || root), count the elements
// under the child, and spans the sum — at most 149 bytes, three
// SHA-256 blocks, where a binary tree spends three 65-byte nodes of two
// blocks each on the same four children. Buckets vary in size, so a
// leaf's index no longer says where its elements sit in the run; the
// counts do, and a verifier reads a range's position off the subtrees
// before it. The shape is a pure function of n, so prover and verifier
// agree on it from the leaf count alone, and a contiguous leaf range
// [lo, hi) has exactly one multiproof: the maximal subtrees disjoint
// from the range, in traversal (left-to-right) order — at most 2 × 3
// per level. A node whose width is a power of four starts at a
// multiple of that width: it is a complete aligned subtree.

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

// emptyRoot is the root of a tree with no leaves: H(0x01) over no
// children — no real interior node hashes a lone domain byte, so it
// collides with nothing. Commitments omit empty groups, so it never
// appears inside a header in practice; it exists so TreeRoot is total.
func emptyRoot() Node {
	return Node{Root: Hash(sha256.Sum256([]byte{domainNode}))}
}

// TreeRoot computes the root over the full bucket sequence from the
// buckets alone: the cache-less case of Tree.Root, and the oracle a
// cached tree is tested against.
func TreeRoot(b Buckets) Node {
	var t Tree
	return t.Root(b)
}

// RangeProof returns the multiproof for the contiguous bucket range
// [lo, hi) from the buckets alone, O(n) hashes: the cache-less case of
// Tree.RangeProof. Requires 0 <= lo < hi <= b.Len().
func RangeProof(b Buckets, lo, hi int) []Node {
	var t Tree
	return t.RangeProof(b, lo, hi)
}

// cacheFloor is the height of the lowest cached level: a Tree keeps
// the roots of complete aligned subtrees of 4^cacheFloor leaves and
// up, and recomputes anything smaller from the leaves. Each level is a
// quarter of the one below, so the cache costs 40 B / (3 × 4^(cacheFloor-1))
// per leaf on top of the leaf's own 33 B — a leaf is a bucket of 3.8
// elements on average — and a proof pays a few extra hashes per side
// of its range for what the floor leaves out. A constant, not a knob:
// every proved window pays for the floor, and the 4-leaf one costs 2 B
// per element more than the 16-leaf one and a tenth less per proof.
// Measured on one box with buckets of four elements and no counts
// (microbench legs, 2 cores, the 120k-element list; floors 1 and 2
// medians of 4 runs interleaved, floor 3 a median of 3 from an earlier
// session):
//
//	floor  leaves (elements)  cache B/element  ProofQuery/proved  /after-write
//	1      4 (16)             2.7              0.351 ms           1.354 ms
//	2      16 (64)            0.7              0.392 ms           1.310 ms
//	3      64 (256)           0.2              0.443 ms           1.291 ms
const cacheFloor = 1

// Tree caches the interior nodes of one bucket sequence's Merkle tree
// so that roots and range proofs cost O(log n) instead of O(n) hashes.
// It holds no buckets: every method takes the sequence, and the cache
// is only ever a statement about a prefix of it.
//
// What is cached is the roots of complete aligned subtrees —
// levels[j][i] is the node over leaves [i×4^h, (i+1)×4^h) for
// h = cacheFloor+j. Every node off the tree's right edge is such a
// subtree, and which leaves it spans does not depend on n, so an entry
// stays valid while the sequence grows or shrinks at its tail. The
// ragged right edge (O(log n) nodes) is never cached and is re-hashed
// per call.
//
// The owner keeps the cache honest with three calls: Invalidate(i)
// after bucket i changed in place, Truncate(p) after the buckets from
// index p on moved — an insert or remove of a bucket at p shifts every
// later one, so nothing cached over [p, n) survives — and Extend to
// re-cover the sequence; a Tree is read only after an Extend that
// follows its last Invalidate. The zero Tree caches nothing
// and computes everything from the buckets. Not safe for concurrent
// use.
type Tree struct {
	levels [][]Node
	// dirty holds the buckets invalidated since the last Extend, whose
	// cached ancestors Extend recomputes.
	dirty []int
}

// Truncate drops every cached subtree that reaches leaf index p or
// beyond, keeping exactly the entries over [0, p).
func (t *Tree) Truncate(p int) {
	for j, lv := range t.levels {
		if keep := p >> (logArity * (cacheFloor + j)); keep < len(lv) {
			t.levels[j] = lv[:keep]
		}
	}
	t.dirty = slices.DeleteFunc(t.dirty, func(i int) bool { return i >= p })
}

// Invalidate records that bucket i changed in place: the next Extend
// recomputes the cached subtrees over it, and only those. Past as many
// marks as the lowest level has entries, recomputing from the lowest
// mark on is as cheap, and the marks are dropped for a Truncate.
func (t *Tree) Invalidate(i int) {
	if len(t.levels) == 0 || i >= len(t.levels[0])<<(logArity*cacheFloor) {
		return // not cached
	}
	t.dirty = append(t.dirty, i)
	if len(t.dirty) > len(t.levels[0]) {
		t.Truncate(slices.Min(t.dirty))
	}
}

// Extend recomputes the cached subtrees over the invalidated buckets,
// bottom up, and caches every complete aligned subtree of b that is not
// cached yet: the hashes of a full build on a fresh Tree, only those
// over [p, n) after Truncate(p).
func (t *Tree) Extend(b Buckets) {
	if len(t.dirty) > 0 {
		slices.Sort(t.dirty)
		for j, lv := range t.levels {
			s := logArity * (cacheFloor + j)
			last := -1
			for _, i := range t.dirty {
				if e := i >> s; e != last && e < len(lv) {
					last = e
					lv[e] = t.children(b, e<<s, (e+1)<<s)
				}
			}
		}
		t.dirty = t.dirty[:0]
	}
	n := b.Len()
	for j := 0; 1<<(logArity*(cacheFloor+j)) <= n; j++ {
		if j == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		s := logArity * (cacheFloor + j)
		lv, want := t.levels[j], n>>s
		if want > cap(lv) {
			// Sized exactly: the cache is per committed element, and
			// append's growth slack would be a quarter of it.
			lv = append(make([]Node, 0, want), lv...)
		}
		for i := len(lv); i < want; i++ {
			// One hash of four entries of the level below, which is
			// complete by now; the lowest level hashes up from its leaves.
			lv = append(lv, t.subRoot(b, i<<s, (i+1)<<s))
		}
		t.levels[j] = lv
	}
}

// Root returns the tree's root node over b.
func (t *Tree) Root(b Buckets) Node {
	if b.Len() == 0 {
		return emptyRoot()
	}
	return t.subRoot(b, 0, b.Len())
}

// subRoot returns the subtree spanning leaves [a, e), a node of the
// tree over b: from the cache when it is a cached complete subtree,
// else from its children.
func (t *Tree) subRoot(b Buckets, a, e int) Node {
	w := e - a
	if w == 1 {
		return b.node(a)
	}
	// A node whose width is a power of four is complete and aligned, so
	// its index within its level is a >> log2(width).
	if s := bits.TrailingZeros(uint(w)); w&(w-1) == 0 && s%logArity == 0 {
		if j := s/logArity - cacheFloor; j >= 0 && j < len(t.levels) && a>>s < len(t.levels[j]) {
			return t.levels[j][a>>s]
		}
	}
	return t.children(b, a, e)
}

// children hashes the node over leaves [a, e), e-a >= 2, from its
// children's roots.
func (t *Tree) children(b Buckets, a, e int) Node {
	var kids [arity]Node
	c := 0
	for x, k := a, splitPoint(e-a); x < e; x += min(k, e-x) {
		kids[c] = t.subRoot(b, x, x+min(k, e-x))
		c++
	}
	return interiorHash(kids[:c]...)
}

// RangeProof returns the multiproof for the contiguous bucket range
// [lo, hi) of b: the subtrees a verifier holding only the range's
// buckets needs to rebuild the root. With the cache covering b that is
// O(log n) look-ups plus the right edge's O(log n) hashes, at most
// 2(arity-1) per level: the path is sized for that once. Requires
// 0 <= lo < hi <= b.Len().
func (t *Tree) RangeProof(b Buckets, lo, hi int) []Node {
	var out []Node
	if lo > 0 || hi < b.Len() {
		out = make([]Node, 0, 2*(arity-1)*depth(b.Len()))
	}
	return t.rangeProofStep(b, 0, b.Len(), lo, hi, out)
}

func (t *Tree) rangeProofStep(b Buckets, a, e, lo, hi int, out []Node) []Node {
	if a >= hi || e <= lo {
		// Disjoint from the range: one opaque subtree.
		return append(out, t.subRoot(b, a, e))
	}
	if lo <= a && e <= hi {
		// Inside the range: the verifier rebuilds this from its buckets.
		return out
	}
	for x, k := a, splitPoint(e-a); x < e; x += min(k, e-x) {
		out = t.rangeProofStep(b, x, x+min(k, e-x), lo, hi, out)
	}
	return out
}

// VerifyRange rebuilds the root of an n-leaf tree from the buckets of
// the contiguous range [lo, hi) plus a RangeProof for it, reporting
// whether the reconstruction is well-formed (the proof holds exactly
// the nodes the shape demands — no more, no fewer — each counting one
// to maxCount elements). It also returns how many elements the
// subtrees before the range count: the position of the range's first
// element, which the counts bind. The caller compares the returned
// root against the committed one.
func VerifyRange(n, lo, hi int, rangeLeaves, path []Node) (root Node, before int, ok bool) {
	if lo < 0 || hi > n || lo >= hi || hi-lo != len(rangeLeaves) {
		return Node{}, 0, false
	}
	for _, l := range rangeLeaves {
		if l.Count < 1 || l.Count > maxCount {
			return Node{}, 0, false
		}
	}
	v := &rangeVerifier{leaves: rangeLeaves, path: path, lo: lo, hi: hi}
	root, ok = v.root(n)
	return root, v.before, ok
}

// rangeVerifier mirrors rangeProofStep's traversal, consuming proof
// nodes where the prover emitted them and range buckets inside the
// range. The subtrees disjoint from the range come, in traversal
// (left-to-right) order, from left, then path, then tail: a full proof
// has them all in path; a continuation's verifier (window.go) seeds
// left with the subtrees covering [0, lo) and tail with the right-path
// nodes the previous window's proof already carried, and path holds
// the rest. It sums the counts of the subtrees before the range in
// before.
//
// With record set, the traversal also appends to out the subtrees
// covering [0, end) — a range's frontier, which are the children wholly
// before end of the nodes straddling end, or the root when end = n —
// followed by the subtrees covering [hi, n), its right path: what the
// next window of a scan continues from. It counts the first part in
// nLeft.
type rangeVerifier struct {
	leaves           []Node
	left, path, tail []Node
	lo, hi           int
	broken           bool
	before           int

	record bool
	end    int
	out    []Node
	nLeft  int
}

// root rebuilds the root of an n-leaf tree and reports whether every
// supplied node was consumed exactly.
func (v *rangeVerifier) root(n int) (Node, bool) {
	start := len(v.out)
	root := v.node(0, n)
	if v.broken || len(v.left)+len(v.path)+len(v.tail) != 0 {
		return Node{}, false
	}
	if v.record && v.end == n {
		v.out = append(v.out[:start], root)
		v.nLeft = 1
	}
	return root, true
}

// next is the next supplied subtree disjoint from the range.
func (v *rangeVerifier) next() (h Node) {
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
	if h.Count < 1 || h.Count > maxCount {
		v.broken = true
		return Node{}
	}
	return h
}

// node rebuilds the subtree over [a, b). Once the proof is broken it
// stops hashing and returns the zero Node: the reconstruction is
// refused anyway, and no count of a hostile node reaches a sum.
func (v *rangeVerifier) node(a, b int) Node {
	if v.broken {
		return Node{}
	}
	if a >= v.hi || b <= v.lo {
		h := v.next()
		if v.broken {
			return Node{}
		}
		if v.record && a >= v.hi {
			v.out = append(v.out, h)
		}
		if b <= v.lo {
			v.before += h.Count
		}
		return h
	}
	if b-a == 1 {
		return v.leaves[a-v.lo]
	}
	var kids [arity]Node
	c := 0
	for x, k := a, splitPoint(b-a); x < b; x += min(k, b-x) {
		y := x + min(k, b-x)
		if kids[c] = v.node(x, y); v.broken {
			return Node{}
		}
		if v.record && y <= v.end && v.end < b {
			v.out = append(v.out, kids[c])
			v.nLeft++
		}
		c++
	}
	nd := interiorHash(kids[:c]...)
	if nd.Count > maxCount {
		v.broken = true
		return Node{}
	}
	return nd
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
