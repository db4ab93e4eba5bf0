package proof

// Golden roots and range proofs. testdata/merkle_golden.txt was written
// by running this test with -update on the commit that made bucket
// boundaries content-defined and interior nodes counted, from the
// cache-less recursion, and every root and path in it (each node as
// count:root) is what the level-by-level oracle (oracle_test.go) builds
// too, over the buckets the oracle cuts and hashes itself. A tree
// shape, boundary rule or hash-input change shows up here as a diff
// against that commit, not merely as prover and verifier agreeing with
// each other. -update rewrites the file: that re-roots every committed
// list, so it is a format break, not a way to make a red test green.

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/merkle_golden.txt from this build's roots and paths")

const goldenFile = "merkle_golden.txt"

var goldenSizes = []int{1, 2, 3, 5, 8, 9, 625, 1000}

// goldenRun returns n distinct rank-sorted elements that depend on
// nothing but n and the index.
func goldenRun(n int) []WindowElement {
	out := make([]WindowElement, n)
	for i := range out {
		sealed := make([]byte, 8)
		binary.BigEndian.PutUint32(sealed[:4], uint32(n))
		binary.BigEndian.PutUint32(sealed[4:], uint32(i))
		out[i] = WindowElement{TRS: float64(n-i) / 4, Sealed: sealed}
	}
	return out
}

// goldenLeaves returns the first n buckets of a run of MaxBucket × n
// elements, which holds at least n: buckets of every size the boundary
// rule draws, the last one whole.
func goldenLeaves(n int) Buckets {
	b := bucketsOf(goldenRun(MaxBucket * n))
	return Buckets{Hashes: b.Hashes[:n], Sizes: b.Sizes[:n]}
}

// bucketsOf hashes a run into its buckets with a Bucketer.
func bucketsOf(run []WindowElement) Buckets {
	var b Bucketer
	var out Buckets
	add := func(nd Node) {
		out.Hashes = append(out.Hashes, nd.Root)
		out.Sizes = append(out.Sizes, uint8(nd.Count))
	}
	for _, el := range run {
		if nd, ok := b.Add(el.TRS, el.Sealed); ok {
			add(nd)
		}
	}
	if nd, ok := b.Flush(); ok {
		add(nd)
	}
	return out
}

// prefix is the first n buckets of b.
func prefix(b Buckets, n int) Buckets {
	return Buckets{Hashes: b.Hashes[:n], Sizes: b.Sizes[:n]}
}

// renderNode renders a node as count:root.
func renderNode(nd Node) string {
	return fmt.Sprintf("%d:%s", nd.Count, hex.EncodeToString(nd.Root[:]))
}

// goldenRanges picks the [lo, hi) ranges recorded for an n-leaf tree:
// both edges, the whole tree, single leaves, and windows that straddle
// the top split and the ragged right edge.
func goldenRanges(n int) [][2]int {
	cand := [][2]int{
		{0, 1}, {0, n}, {n - 1, n}, {n / 2, n/2 + 1}, {n / 3, 2 * n / 3},
		{1, n - 1}, {0, n / 2}, {n / 2, n}, {splitPoint(max(n, 2)) - 1, splitPoint(max(n, 2)) + 1},
		{n - 3, n - 1}, {n / 5, n/5 + 7},
	}
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, r := range cand {
		if r[0] < 0 || r[0] >= r[1] || r[1] > n || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

// goldenLines renders every recorded root and path with the given
// prover functions.
func goldenLines(root func(Buckets) Node, prove func(Buckets, int, int) []Node) []string {
	var lines []string
	for _, n := range goldenSizes {
		l := goldenLeaves(n)
		lines = append(lines, fmt.Sprintf("root %d %s", n, renderNode(root(l))))
		for _, rg := range goldenRanges(n) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "path %d %d %d", n, rg[0], rg[1])
			for _, nd := range prove(l, rg[0], rg[1]) {
				sb.WriteByte(' ')
				sb.WriteString(renderNode(nd))
			}
			lines = append(lines, sb.String())
		}
	}
	return lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestGoldenRootsAndPaths(t *testing.T) {
	if *update {
		got := goldenLines(TreeRoot, RangeProof)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", goldenFile), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	// The same vectors from the leaves alone, from a tree whose cache
	// covers the leaves, from one that was grown a leaf at a time, and
	// from the level-by-level oracle (oracle_test.go).
	covering := func(l Buckets) *Tree {
		var tr Tree
		tr.Extend(l)
		return &tr
	}
	grown := func(l Buckets) *Tree {
		var tr Tree
		for n := 1; n <= l.Len(); n++ {
			tr.Extend(prefix(l, n))
		}
		return &tr
	}
	provers := []struct {
		name  string
		root  func(Buckets) Node
		prove func(Buckets, int, int) []Node
	}{
		{"stateless", TreeRoot, RangeProof},
		{"cached",
			func(l Buckets) Node { return covering(l).Root(l) },
			func(l Buckets, lo, hi int) []Node { return covering(l).RangeProof(l, lo, hi) }},
		{"grown",
			func(l Buckets) Node { return grown(l).Root(l) },
			func(l Buckets, lo, hi int) []Node { return grown(l).RangeProof(l, lo, hi) }},
		{"oracle",
			func(l Buckets) Node { root, _ := buildOracle(l); return root.node() },
			func(l Buckets, lo, hi int) []Node { root, _ := buildOracle(l); return root.proof(lo, hi, nil) }},
	}
	for _, p := range provers {
		got := goldenLines(p.root, p.prove)
		if len(got) != len(want) {
			t.Fatalf("%s: %d golden lines, this build renders %d", p.name, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: line %d differs from the committed vector:\n got %.80s\nwant %.80s", p.name, i+1, got[i], want[i])
			}
		}
	}
}
