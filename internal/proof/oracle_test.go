package proof

// An oracle for the four-ary shape that shares no code with merkle.go
// or proof.go: it builds the tree level by level, bottom up, from the
// shape's definition read the other way round — every run of 4^h
// leaves that starts at a multiple of 4^h is one node, so each level
// groups the level below in aligned runs of four, and a run of one
// (the ragged right edge) moves up unhashed. Its leaves are the run's
// buckets, cut and hashed here again: a bucket ends after an element
// once it holds two and the element's payload's last eight bytes mix
// to 0 mod 3, or once it holds eight, or with the run; it hashes 0x00
// and, per element, its TRS bits, length and payload. A node counts the
// elements below it and hashes 0x01 and, per child, the child's count
// as a uvarint and its root.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

const (
	oracleArity     = 4
	oracleMinBucket = 2
	oracleMaxBucket = 8
)

// oracleCut is the boundary predicate written out again: the
// payload's last eight bytes, zero-padded on the right when it is
// shorter, read little-endian, xored with its length, then SplitMix64's
// finalizer, modulo 3.
func oracleCut(sealed []byte) bool {
	tail := sealed
	if len(tail) > 8 {
		tail = tail[len(tail)-8:]
	}
	var h uint64
	for i, b := range tail {
		h |= uint64(b) << (8 * i)
	}
	h ^= uint64(len(sealed))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h%3 == 0
}

// oracleBuckets cuts a run into buckets and hashes each in one call.
func oracleBuckets(run []WindowElement) Buckets {
	var out Buckets
	var in []byte
	n := 0
	for i, el := range run {
		if n == 0 {
			in = []byte{0x00}
		}
		n++
		in = binary.BigEndian.AppendUint64(in, math.Float64bits(el.TRS))
		in = binary.AppendUvarint(in, uint64(len(el.Sealed)))
		in = append(in, el.Sealed...)
		if n == oracleMaxBucket || n >= oracleMinBucket && oracleCut(el.Sealed) || i == len(run)-1 {
			out.Hashes = append(out.Hashes, sha256.Sum256(in))
			out.Sizes = append(out.Sizes, uint8(n))
			n = 0
		}
	}
	return out
}

// oracleNode is one node of the oracle's tree: the leaves [lo, hi) it
// spans, the elements below it, its root and its children (none for a
// leaf).
type oracleNode struct {
	lo, hi int
	count  int
	root   Hash
	kids   []*oracleNode
}

func (nd *oracleNode) node() Node { return Node{Count: nd.count, Root: nd.root} }

// buildOracle returns the root node of the tree over leaves (n >= 1)
// and every node it holds, keyed by span.
func buildOracle(leaves Buckets) (*oracleNode, map[[2]int]*oracleNode) {
	all := make(map[[2]int]*oracleNode)
	level := make([]*oracleNode, len(leaves.Hashes))
	for i, l := range leaves.Hashes {
		level[i] = &oracleNode{lo: i, hi: i + 1, count: int(leaves.Sizes[i]), root: l}
		all[[2]int{i, i + 1}] = level[i]
	}
	for len(level) > 1 {
		var up []*oracleNode
		for i := 0; i < len(level); i += oracleArity {
			run := level[i:min(i+oracleArity, len(level))]
			if len(run) == 1 {
				up = append(up, run[0])
				continue
			}
			in := []byte{0x01}
			count := 0
			for _, k := range run {
				in = binary.AppendUvarint(in, uint64(k.count))
				in = append(in, k.root[:]...)
				count += k.count
			}
			nd := &oracleNode{lo: run[0].lo, hi: run[len(run)-1].hi, count: count, root: sha256.Sum256(in), kids: run}
			all[[2]int{nd.lo, nd.hi}] = nd
			up = append(up, nd)
		}
		level = up
	}
	return level[0], all
}

// proof appends the multiproof of [lo, hi) below nd: the maximal
// subtrees disjoint from the range, left to right.
func (nd *oracleNode) proof(lo, hi int, out []Node) []Node {
	switch {
	case nd.hi <= lo || nd.lo >= hi:
		return append(out, nd.node())
	case lo <= nd.lo && nd.hi <= hi:
		return out
	}
	for _, k := range nd.kids {
		out = k.proof(lo, hi, out)
	}
	return out
}

// sizesBefore is how many elements the first lo buckets hold.
func sizesBefore(b Buckets, lo int) int {
	n := 0
	for _, s := range b.Sizes[:lo] {
		n += int(s)
	}
	return n
}

// TestOracleShape holds the Bucketer to the oracle's buckets and
// merkle.go to the oracle for every tree of up to 300 leaves: TreeRoot; a cached Tree truncated at every p and extended
// again, which must hold exactly the oracle's complete aligned
// subtrees; and for the ranges [lo, hi) below, the cached RangeProof,
// hash for hash, within the path bound 2·(k−1)·⌈log_k n⌉, and
// VerifyRange, which must rebuild the root from the honest proof. The
// ranges are every range of every tree up to 80 leaves — three levels
// and the ragged edges past 64 — and beyond that every range of up to
// 8 leaves and every range that reaches either end: every range of
// every tree up to 300 leaves takes ≈ 50 s on two cores, for shapes the
// smaller trees already hold. The cache-less RangeProof hashes O(n) per
// call; it is compared on every range of trees up to 64 leaves and,
// beyond, on the ranges a third of the tree long that reach either end.
func TestOracleShape(t *testing.T) {
	const maxN = 300
	run := goldenRun(oracleMaxBucket * maxN)
	all := oracleBuckets(run)
	for m := 0; m <= 600; m++ {
		if got, want := bucketsOf(run[:m]), oracleBuckets(run[:m]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d elements: the Bucketer's buckets differ from the oracle's", m)
		}
	}
	for _, size := range []uint8{oracleMinBucket, oracleMaxBucket} {
		if !slices.Contains(all.Sizes[:maxN-1], size) {
			t.Fatalf("no bucket of %d elements among the trees' leaves", size)
		}
	}
	for n := 1; n <= maxN; n++ {
		leaves := prefix(all, n)
		root, nodes := buildOracle(leaves)
		if got := TreeRoot(leaves); got != root.node() {
			t.Fatalf("n=%d: TreeRoot differs from the oracle", n)
		}
		levels := 0
		for w := 1; w < n; w *= oracleArity {
			levels++
		}
		bound := 2 * (oracleArity - 1) * levels

		var full Tree
		full.Extend(leaves)
		checkCache(t, &full, nodes, n, -1)
		for p := 0; p <= n; p++ {
			tr := Tree{levels: make([][]Node, len(full.levels))}
			for j, lv := range full.levels {
				tr.levels[j] = slices.Clone(lv)
			}
			tr.Truncate(p)
			tr.Extend(leaves)
			checkCache(t, &tr, nodes, n, p)
			if got := tr.Root(leaves); got != root.node() {
				t.Fatalf("n=%d: root after Truncate(%d)+Extend differs from the oracle", n, p)
			}
		}

		var out []Node
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				if n > 80 && hi-lo > 8 && lo > 0 && hi < n {
					continue
				}
				want := root.proof(lo, hi, out[:0])
				out = want
				if len(want) > bound {
					t.Fatalf("n=%d [%d,%d): %d path hashes, bound %d", n, lo, hi, len(want), bound)
				}
				got := full.RangeProof(leaves, lo, hi)
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d [%d,%d): cached RangeProof differs from the oracle", n, lo, hi)
				}
				if n <= 64 || hi-lo == n/3 {
					if !slices.Equal(RangeProof(leaves, lo, hi), want) {
						t.Fatalf("n=%d [%d,%d): RangeProof differs from the oracle", n, lo, hi)
					}
				}
				if r, before, ok := VerifyRange(n, lo, hi, nodesOf(leaves, lo, hi), want); !ok || r != root.node() || before != sizesBefore(leaves, lo) {
					t.Fatalf("n=%d [%d,%d): VerifyRange does not rebuild the oracle's root and position", n, lo, hi)
				}
			}
		}
	}
}

// checkCache holds every cached entry of tr to the oracle node over the
// same leaves, and requires a full cover: each complete aligned subtree
// of 4^(cacheFloor+j) leaves inside [0, n), no more. p is the Truncate
// point the cache was rebuilt from, for the message.
func checkCache(t *testing.T, tr *Tree, nodes map[[2]int]*oracleNode, n, p int) {
	t.Helper()
	width := 1
	for range cacheFloor {
		width *= oracleArity
	}
	j := 0
	for ; width <= n; j, width = j+1, width*oracleArity {
		if j >= len(tr.levels) || len(tr.levels[j]) != n/width {
			t.Fatalf("n=%d p=%d: level %d does not hold the %d subtrees of %d leaves", n, p, j, n/width, width)
		}
		for i, h := range tr.levels[j] {
			if nd := nodes[[2]int{i * width, (i + 1) * width}]; nd == nil || nd.node() != h {
				t.Fatalf("n=%d p=%d: level %d entry %d is not the oracle's subtree", n, p, j, i)
			}
		}
	}
	if j < len(tr.levels) {
		t.Fatalf("n=%d p=%d: %d cached levels, %d have a complete subtree", n, p, len(tr.levels), j)
	}
}

// TestOracleContinuation verifies, for every run of up to 32 elements
// and every pair of window ends 0 < e1 < e2 <= n, the window [e1, e2)
// of a one-group list as the continuation of the window [0, e1) — ends
// on every position of a bucket and on its boundaries, those of
// buckets the rule cut at two elements and at eight among them — and
// for every run of up to 300 elements the scans a search makes: a
// first window of b = 1..16 elements, then windows doubling in size.
// The continuation must verify against the group root the oracle
// builds over the oracle's buckets and leave the Frontier the full
// proof of the same window leaves.
func TestOracleContinuation(t *testing.T) {
	const maxN = 300
	els := make([]WindowElement, maxN)
	for i := range els {
		els[i] = WindowElement{TRS: float64(maxN - i), Sealed: []byte{byte(i), byte(i >> 8)}}
	}
	for _, size := range []uint8{oracleMinBucket, oracleMaxBucket} {
		if !slices.Contains(oracleBuckets(els[:32]).Sizes, size) {
			t.Fatalf("the first 32 elements hold no bucket of %d", size)
		}
	}
	allowed := map[int]bool{0: true}
	for n := 1; n <= maxN; n++ {
		leaves := oracleBuckets(els[:n])
		root, _ := buildOracle(leaves)
		var tr Tree
		tr.Extend(leaves)
		listRoot := ListRoot(3, ContentRoot([]HeaderEntry{{Group: 0, HH: HeaderHash(0, n, root.root)}}))
		// bucketOf is the bucket holding position p and where it starts.
		bucketOf := func(p int) (int, int) {
			b, start := 0, 0
			for start+int(leaves.Sizes[b]) <= p {
				start += int(leaves.Sizes[b])
				b++
			}
			return b, start
		}
		// window is the honest full proof of [start, end) over the first
		// n elements.
		window := func(start, end int) *Window {
			gw := GroupWindow{Count: n, Root: &root.root, Buckets: leaves.Len(), Start: start, End: end}
			lo, hb, hi := 0, leaves.Len(), n
			if start > 0 {
				gw.First, lo = bucketOf(start - 1)
			}
			if end < n {
				b, s := bucketOf(end)
				hb, hi = b+1, s+int(leaves.Sizes[b])
			}
			for _, el := range els[lo:start] {
				gw.Pred = append(gw.Pred, Boundary{TRS: el.TRS, Sealed: el.Sealed})
			}
			for _, el := range els[end:hi] {
				gw.Succ = append(gw.Succ, Boundary{TRS: el.TRS, Sealed: el.Sealed})
			}
			gw.Path = tr.RangeProof(leaves, gw.First, hb)
			return &Window{Version: 3, Root: listRoot, Groups: []GroupWindow{gw}}
		}
		check := func(e1, e2 int) {
			prev, err := VerifyNext(nil, window(0, e1), allowed, 0, e1, els[:e1], false, 3)
			if err != nil || prev == nil {
				t.Fatalf("n=%d: window [0,%d): %v", n, e1, err)
			}
			w := window(e1, e2)
			want, err := VerifyNext(prev, w, allowed, e1, e2-e1, els[e1:e2], e2 == n, 3)
			if err != nil {
				t.Fatalf("n=%d: full proof of [%d,%d): %v", n, e1, e2, err)
			}
			got, err := VerifyNext(prev, Continue(w, els[e1:e2], nil), allowed, e1, e2-e1, els[e1:e2], e2 == n, 3)
			if err != nil {
				t.Fatalf("n=%d: continuation [%d,%d): %v", n, e1, e2, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: continuation [%d,%d) leaves another Frontier than the full proof", n, e1, e2)
			}
		}
		if n <= 32 {
			for e1 := 1; e1 < n; e1++ {
				for e2 := e1 + 1; e2 <= n; e2++ {
					check(e1, e2)
				}
			}
			continue
		}
		for b := 1; b <= 16; b++ {
			for e, c := b, 2*b; e < n; e, c = e+c, 2*c {
				check(e, min(e+c, n))
			}
		}
	}
}

// nodesOf is buckets [lo, hi) of b as leaf nodes.
func nodesOf(b Buckets, lo, hi int) []Node {
	out := make([]Node, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, b.node(i))
	}
	return out
}
