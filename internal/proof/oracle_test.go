package proof

// An oracle for the four-ary shape that shares no code with merkle.go:
// it builds the tree level by level, bottom up, from the shape's
// definition read the other way round — every run of 4^h leaves that
// starts at a multiple of 4^h is one node, so each level groups the
// level below in aligned runs of four, and a run of one (the ragged
// right edge) moves up unhashed. Its leaves are the run's buckets, and
// every hash — a bucket is SHA-256 over 0x00 and, per element, its TRS
// bits, length and payload; a node over 0x01 and the children's roots —
// is written out here again.

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

const (
	oracleArity  = 4
	oracleBucket = 4
)

// oracleBuckets hashes a run into the leaves of its tree: each aligned
// run of four elements, the last possibly shorter, in one call.
func oracleBuckets(run []WindowElement) []Hash {
	var out []Hash
	for i := 0; i < len(run); i += oracleBucket {
		in := []byte{0x00}
		for _, el := range run[i:min(i+oracleBucket, len(run))] {
			in = binary.BigEndian.AppendUint64(in, math.Float64bits(el.TRS))
			in = binary.AppendUvarint(in, uint64(len(el.Sealed)))
			in = append(in, el.Sealed...)
		}
		out = append(out, sha256.Sum256(in))
	}
	return out
}

// oracleNode is one node of the oracle's tree: the leaves [lo, hi) it
// spans, its root and its children (none for a leaf).
type oracleNode struct {
	lo, hi int
	root   Hash
	kids   []*oracleNode
}

// buildOracle returns the root node of the tree over leaves (n >= 1)
// and every node it holds, keyed by span.
func buildOracle(leaves []Hash) (*oracleNode, map[[2]int]*oracleNode) {
	all := make(map[[2]int]*oracleNode)
	level := make([]*oracleNode, len(leaves))
	for i, l := range leaves {
		level[i] = &oracleNode{lo: i, hi: i + 1, root: l}
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
			for _, k := range run {
				in = append(in, k.root[:]...)
			}
			nd := &oracleNode{lo: run[0].lo, hi: run[len(run)-1].hi, root: sha256.Sum256(in), kids: run}
			all[[2]int{nd.lo, nd.hi}] = nd
			up = append(up, nd)
		}
		level = up
	}
	return level[0], all
}

// proof appends the multiproof of [lo, hi) below nd: the roots of the
// maximal subtrees disjoint from the range, left to right.
func (nd *oracleNode) proof(lo, hi int, out []Hash) []Hash {
	switch {
	case nd.hi <= lo || nd.lo >= hi:
		return append(out, nd.root)
	case lo <= nd.lo && nd.hi <= hi:
		return out
	}
	for _, k := range nd.kids {
		out = k.proof(lo, hi, out)
	}
	return out
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
	run := goldenRun(oracleBucket * maxN)
	all := oracleBuckets(run)
	for m := 0; m <= 3*oracleBucket; m++ {
		if got, want := bucketsOf(run[:m]), oracleBuckets(run[:m]); !slices.Equal(got, want) {
			t.Fatalf("%d elements: the Bucketer's buckets differ from the oracle's", m)
		}
	}
	for n := 1; n <= maxN; n++ {
		leaves := all[:n]
		root, nodes := buildOracle(leaves)
		if got := TreeRoot(leaves); got != root.root {
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
			tr := Tree{levels: make([][]Hash, len(full.levels))}
			for j, lv := range full.levels {
				tr.levels[j] = slices.Clone(lv)
			}
			tr.Truncate(p)
			tr.Extend(leaves)
			checkCache(t, &tr, nodes, n, p)
			if got := tr.Root(leaves); got != root.root {
				t.Fatalf("n=%d: root after Truncate(%d)+Extend differs from the oracle", n, p)
			}
		}

		var out []Hash
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
				if r, ok := VerifyRange(n, lo, hi, leaves[lo:hi], want); !ok || r != root.root {
					t.Fatalf("n=%d [%d,%d): VerifyRange does not rebuild the oracle's root", n, lo, hi)
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
			if nd := nodes[[2]int{i * width, (i + 1) * width}]; nd == nil || nd.root != h {
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
// on every position of a bucket and on its boundaries — and for every
// run of up to 300 elements the scans a search makes: a first window of
// b = 1..16 elements, then windows doubling in size. The continuation
// must verify against the group root the oracle builds over the
// oracle's buckets and leave the Frontier the full proof of the same
// window leaves.
func TestOracleContinuation(t *testing.T) {
	const maxN = 300
	els := make([]WindowElement, maxN)
	for i := range els {
		els[i] = WindowElement{TRS: float64(maxN - i), Sealed: []byte{byte(i), byte(i >> 8)}}
	}
	allowed := map[int]bool{0: true}
	for n := 1; n <= maxN; n++ {
		leaves := oracleBuckets(els[:n])
		root, _ := buildOracle(leaves)
		var tr Tree
		tr.Extend(leaves)
		listRoot := ListRoot(3, ContentRoot([]HeaderEntry{{Group: 0, HH: HeaderHash(0, n, root.root)}}))
		// window is the honest full proof of [start, end) over the first
		// n elements.
		window := func(start, end int) *Window {
			gw := GroupWindow{Count: n, Root: &root.root, Start: start, End: end}
			lo, hi := EdgeRange(n, start, end)
			for _, el := range els[lo:start] {
				gw.Pred = append(gw.Pred, Boundary{TRS: el.TRS, Sealed: el.Sealed})
			}
			for _, el := range els[end:hi] {
				gw.Succ = append(gw.Succ, Boundary{TRS: el.TRS, Sealed: el.Sealed})
			}
			gw.Path = tr.RangeProof(leaves, lo/oracleBucket, (hi+oracleBucket-1)/oracleBucket)
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
			got, err := VerifyNext(prev, Continue(w), allowed, e1, e2-e1, els[e1:e2], e2 == n, 3)
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
