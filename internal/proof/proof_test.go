package proof

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// leaves returns n distinct deterministic leaves of one to MaxBucket
// elements.
func leaves(n int) Buckets {
	var out Buckets
	for i := range n {
		out.Hashes = append(out.Hashes, leafOf(float64(n-i), []byte{byte(i), byte(n)}))
		out.Sizes = append(out.Sizes, uint8(1+i%MaxBucket))
	}
	return out
}

// leafOf is the hash of a bucket holding one element: a run's last
// bucket when one element is left over.
func leafOf(trs float64, sealed []byte) Hash {
	var b Bucketer
	b.Add(trs, sealed)
	h, _ := b.Flush()
	return h.Root
}

// runBuckets hashes a rank-sorted run into its tree's leaves.
func runBuckets(run []pEl) Buckets {
	els := make([]WindowElement, len(run))
	for i, el := range run {
		els[i] = WindowElement{TRS: el.trs, Sealed: el.sealed}
	}
	return bucketsOf(els)
}

// edges returns the Pred and Succ of an honest proof of the run's
// window [start, end), and the bucket range [lb, hb) its path covers:
// from the bucket holding start-1 to the one holding end.
func edges(run []pEl, start, end int) (pred, succ []Boundary, lb, hb int) {
	b := runBuckets(run)
	bucketOf := func(p int) (int, int) {
		i, at := 0, 0
		for at+int(b.Sizes[i]) <= p {
			at += int(b.Sizes[i])
			i++
		}
		return i, at
	}
	lo, hi := 0, len(run)
	hb = b.Len()
	if start > 0 {
		lb, lo = bucketOf(start - 1)
	}
	if end < len(run) {
		i, at := bucketOf(end)
		hb, hi = i+1, at+int(b.Sizes[i])
	}
	for _, el := range run[lo:start] {
		pred = append(pred, Boundary{TRS: el.trs, Sealed: el.sealed})
	}
	for _, el := range run[end:hi] {
		succ = append(succ, Boundary{TRS: el.trs, Sealed: el.sealed})
	}
	return pred, succ, lb, hb
}

func TestSplitPoint(t *testing.T) {
	cases := map[int]int{2: 1, 3: 1, 4: 1, 5: 4, 6: 4, 8: 4, 9: 4, 16: 4, 17: 16, 33: 16, 64: 16, 65: 64}
	for n, want := range cases {
		if got := splitPoint(n); got != want {
			t.Errorf("splitPoint(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTreeRootShape(t *testing.T) {
	l := leaves(6)
	nd := func(i int) Node { return l.node(i) }
	if TreeRoot(prefix(l, 1)) != nd(0) {
		t.Error("single-leaf tree root is not the leaf")
	}
	if got, want := TreeRoot(prefix(l, 2)), interiorHash(nd(0), nd(1)); got != want {
		t.Error("2-leaf root mismatch")
	}
	// n=3 has three leaf children, n=5 splits 4|1, n=6 splits 4|2.
	if got, want := TreeRoot(prefix(l, 3)), interiorHash(nd(0), nd(1), nd(2)); got != want {
		t.Error("3-leaf root mismatch")
	}
	four := interiorHash(nd(0), nd(1), nd(2), nd(3))
	if got, want := TreeRoot(prefix(l, 5)), interiorHash(four, nd(4)); got != want {
		t.Error("5-leaf root mismatch")
	}
	if got, want := TreeRoot(l), interiorHash(four, interiorHash(nd(4), nd(5))); got != want {
		t.Error("6-leaf root mismatch")
	}
	if got := TreeRoot(l).Count; got != 1+2+3+4+5+6 {
		t.Errorf("root counts %d elements, want 21", got)
	}
	if TreeRoot(Buckets{}) != emptyRoot() {
		t.Error("empty tree root is not emptyRoot")
	}
	// A node commits its children's counts: the same roots counted
	// otherwise hash to another node.
	if a, b := interiorHash(nd(0), nd(1)), interiorHash(Node{Count: 2, Root: nd(0).Root}, Node{Count: 1, Root: nd(1).Root}); a.Root == b.Root {
		t.Error("recounted children hash to the same node")
	}
}

func TestRangeProofRoundTrip(t *testing.T) {
	for n := 1; n <= 16; n++ {
		l := leaves(n)
		root := TreeRoot(l)
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				path := RangeProof(l, lo, hi)
				got, before, ok := VerifyRange(n, lo, hi, nodesOf(l, lo, hi), path)
				if !ok || got != root || before != sizesBefore(l, lo) {
					t.Fatalf("n=%d [%d,%d): verify ok=%v root match=%v before %d", n, lo, hi, ok, got == root, before)
				}
			}
		}
	}
}

func TestVerifyRangeRejects(t *testing.T) {
	l := leaves(7)
	root := TreeRoot(l)
	path := RangeProof(l, 2, 5)
	in := nodesOf(l, 2, 5)
	if _, _, ok := VerifyRange(7, 2, 5, in, path[:len(path)-1]); ok {
		t.Error("truncated path accepted")
	}
	if _, _, ok := VerifyRange(7, 2, 5, in, append(slices.Clone(path), Node{Count: 1})); ok {
		t.Error("padded path accepted")
	}
	if _, _, ok := VerifyRange(7, 2, 5, in[:2], path); ok {
		t.Error("wrong range width accepted")
	}
	if _, _, ok := VerifyRange(7, 5, 2, nil, path); ok {
		t.Error("inverted range accepted")
	}
	if _, _, ok := VerifyRange(7, 2, 8, nodesOf(l, 2, 7), path); ok {
		t.Error("range past n accepted")
	}
	bad := slices.Clone(in)
	bad[0].Root[0] ^= 1
	if got, _, ok := VerifyRange(7, 2, 5, bad, path); ok && got == root {
		t.Error("tampered leaf rebuilt the committed root")
	}
	for _, count := range []int{0, -1, maxCount + 1} {
		bad := slices.Clone(path)
		bad[0].Count = count
		if _, _, ok := VerifyRange(7, 2, 5, in, bad); ok {
			t.Errorf("a path node counting %d elements accepted", count)
		}
	}
	// A smaller claimed tree needs fewer path nodes, so the honest
	// n=7 proof must fail structurally over n=6. (A *larger* claimed n
	// can pass VerifyRange — path nodes are opaque, a leaf doubles as a
	// subtree root — which is why the root's count is held to the
	// group's, which HeaderHash binds.)
	if _, _, ok := VerifyRange(6, 2, 5, in, path); ok {
		t.Error("n=6 consumed an n=7 proof cleanly")
	}
}

func TestHashJSON(t *testing.T) {
	h := leafOf(1.5, []byte("x"))
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	if err := json.Unmarshal(raw, &back); err != nil || back != h {
		t.Fatalf("round-trip: %v, equal=%v", err, back == h)
	}
	for _, bad := range []string{`"abc"`, `"zz"`, `42`, `""`, fmt.Sprintf("%q", h.String()+"00")} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("accepted bad hash %s", bad)
		}
	}
	if len(h.String()) != 64 {
		t.Error("hex render length wrong")
	}
}

func TestHashDistinctness(t *testing.T) {
	pairs := [][2]Hash{
		{leafOf(1, []byte("ab")), leafOf(2, []byte("ab"))},
		{leafOf(1, []byte("ab")), leafOf(1, []byte("ac"))},
		{leafOf(1, []byte("a")), leafOf(1, []byte("ab"))},
		{HeaderHash(1, 2, Hash{}), HeaderHash(2, 2, Hash{})},
		{HeaderHash(1, 2, Hash{}), HeaderHash(1, 3, Hash{})},
		{ContentRoot(nil), ContentRoot([]HeaderEntry{{Group: 1}})},
		{ListRoot(1, Hash{}), ListRoot(2, Hash{})},
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d collided", i)
		}
	}
	// Domain separation: a leaf over empty input, an interior over zero
	// hashes, a header, the content root and the list root all start
	// with different prefixes, so none can equal another by construction;
	// spot-check the degenerate inputs anyway.
	all := []Hash{leafOf(0, nil), interiorHash(Node{}, Node{}).Root, HeaderHash(0, 0, Hash{}), ContentRoot(nil), ListRoot(0, Hash{}), emptyRoot().Root}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i] == all[j] {
				t.Errorf("domains %d and %d collided", i, j)
			}
		}
	}
}

// --- VerifyWindow: reference prover --------------------------------

// pEl is one committed element in the reference prover.
type pEl struct {
	trs    float64
	sealed []byte
	group  int
}

// buildWindow is an independent reference implementation of the proof
// generator: it commits the given groups, answers the ranked window
// [offset, offset+count) over the allowed view and constructs the
// exact proof an honest server would. VerifyWindow must accept its
// output and reject any mutation of it.
func buildWindow(version uint64, groups map[int][]pEl, allowed map[int]bool, offset, count int) (*Window, []WindowElement, bool) {
	runs := make(map[int][]pEl)
	var ids []int
	for g, els := range groups {
		if len(els) == 0 {
			continue
		}
		run := append([]pEl{}, els...)
		sort.Slice(run, func(i, j int) bool {
			return cmpRank(run[i].trs, run[i].sealed, run[j].trs, run[j].sealed) < 0
		})
		runs[g] = run
		ids = append(ids, g)
	}
	sort.Ints(ids)
	var merged []pEl
	for g, run := range runs {
		if allowed[g] {
			merged = append(merged, run...)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		return cmpRank(merged[i].trs, merged[i].sealed, merged[j].trs, merged[j].sealed) < 0
	})
	end := offset + count
	if end > len(merged) {
		end = len(merged)
	}
	start := offset
	if start > len(merged) {
		start = len(merged)
	}
	window := merged[start:end]
	exhausted := end == len(merged)

	// Per-group committed position of the window slice: count run
	// members inside the merged prefix and window.
	inPrefix := make(map[int]int)
	inWindow := make(map[int]int)
	for _, el := range merged[:start] {
		inPrefix[el.group]++
	}
	for _, el := range window {
		inWindow[el.group]++
	}

	w := &Window{Version: version}
	var entries []HeaderEntry
	for _, g := range ids {
		run := runs[g]
		lh := runBuckets(run)
		root := TreeRoot(lh).Root
		hh := HeaderHash(g, len(run), root)
		entries = append(entries, HeaderEntry{Group: g, HH: hh})
		if !allowed[g] {
			op := hh
			w.Groups = append(w.Groups, GroupWindow{Group: g, Opaque: &op})
			continue
		}
		gw := GroupWindow{Group: g, Count: len(run), Root: &root, Buckets: lh.Len(),
			Start: inPrefix[g], End: inPrefix[g] + inWindow[g]}
		var hb int
		gw.Pred, gw.Succ, gw.First, hb = edges(run, gw.Start, gw.End)
		gw.Path = RangeProof(lh, gw.First, hb)
		w.Groups = append(w.Groups, gw)
	}
	w.Root = ListRoot(version, ContentRoot(entries))

	elems := make([]WindowElement, len(window))
	for i, el := range window {
		elems[i] = WindowElement{TRS: el.trs, Sealed: el.sealed, Group: el.group}
	}
	return w, elems, exhausted
}

// fixture is a three-group committed list; groups 1 and 3 are in the
// caller's view, group 2 is foreign.
func fixture() (map[int][]pEl, map[int]bool) {
	groups := map[int][]pEl{
		1: {
			{9.5, []byte("a1"), 1}, {7.0, []byte("a2"), 1}, {4.0, []byte("a3"), 1},
			{2.0, []byte("a4"), 1}, {1.0, []byte("a5"), 1},
		},
		2: {
			{8.0, []byte("b1"), 2}, {3.0, []byte("b2"), 2},
		},
		3: {
			{9.0, []byte("c1"), 3}, {6.0, []byte("c2"), 3}, {5.0, []byte("c3"), 3},
			{0.5, []byte("c4"), 3},
		},
	}
	allowed := map[int]bool{1: true, 3: true}
	return groups, allowed
}

func TestVerifyWindowAccepts(t *testing.T) {
	groups, allowed := fixture()
	// Visible merged order: a1 9.5, c1 9, a2 7, c2 6, c3 5, a3 4, a4 2, a5 1, c4 0.5.
	for _, q := range []struct{ offset, count int }{
		{0, 3}, {0, 9}, {0, 20}, {2, 4}, {5, 4}, {8, 1}, {9, 5}, {12, 3}, {0, 1}, {4, 1},
	} {
		w, elems, exhausted := buildWindow(7, groups, allowed, q.offset, q.count)
		if err := VerifyWindow(w, allowed, q.offset, q.count, elems, exhausted, 7); err != nil {
			t.Errorf("[%d,%d): honest window rejected: %v", q.offset, q.offset+q.count, err)
		}
	}
	// Single-group views, including one where the other committed
	// groups all travel opaque.
	for g := range allowed {
		view := map[int]bool{g: true}
		w, elems, exhausted := buildWindow(3, groups, view, 1, 2)
		if err := VerifyWindow(w, view, 1, 2, elems, exhausted, 3); err != nil {
			t.Errorf("single-group view %d rejected: %v", g, err)
		}
	}
}

func TestVerifyWindowJSONRoundTrip(t *testing.T) {
	groups, allowed := fixture()
	w, elems, exhausted := buildWindow(7, groups, allowed, 2, 4)
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Window
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if err := VerifyWindow(&back, allowed, 2, 4, elems, exhausted, 7); err != nil {
		t.Fatalf("window no longer verifies after JSON round-trip: %v", err)
	}
}

// TestVerifyWindowOverflowingCounts: a window in the middle of a group
// of a few hundred buckets whose path nodes each claim maxCount
// elements is refused, by VerifyWindow and by VerifyNext, and the
// verifier does not crash on the sums.
func TestVerifyWindowOverflowingCounts(t *testing.T) {
	run := goldenRun(2000)
	els := make([]pEl, len(run))
	for i, el := range run {
		els[i] = pEl{el.TRS, el.Sealed, 1}
	}
	groups, allowed := map[int][]pEl{1: els}, map[int]bool{1: true}
	w, elems, exhausted := buildWindow(7, groups, allowed, 1000, 20)
	if nb := w.Groups[0].Buckets; nb < 256 {
		t.Fatalf("the group holds %d buckets, want at least 256", nb)
	}
	if err := VerifyWindow(w, allowed, 1000, 20, elems, exhausted, 7); err != nil {
		t.Fatalf("honest window refused: %v", err)
	}
	for i := range w.Groups[0].Path {
		w.Groups[0].Path[i].Count = maxCount
	}
	if err := VerifyWindow(w, allowed, 1000, 20, elems, exhausted, 7); !errors.Is(err, ErrInvalid) {
		t.Errorf("VerifyWindow: path nodes of maxCount elements: %v, want ErrInvalid", err)
	}
	if _, err := VerifyNext(nil, w, allowed, 1000, 20, elems, exhausted, 7); !errors.Is(err, ErrInvalid) {
		t.Errorf("VerifyNext: path nodes of maxCount elements: %v, want ErrInvalid", err)
	}
}

func TestVerifyWindowRejects(t *testing.T) {
	groups, allowed := fixture()
	build := func() (*Window, []WindowElement, bool) {
		return buildWindow(7, groups, allowed, 2, 4)
	}
	cases := []struct {
		name string
		// want is the check that must fire: with several defects in one
		// window, which one is reported is part of the contract.
		want   string
		mutate func(w *Window, elems []WindowElement) (*Window, []WindowElement, int, int, bool, uint64)
	}{
		{"nil proof", "no proof attached", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return nil, e, 2, 4, false, 7
		}},
		{"version mismatch", "proof version 7, response version 8", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e, 2, 4, false, 8
		}},
		{"overfull window", "window holds 4 elements, requested 3", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e, 2, len(e) - 1, false, 7
		}},
		{"reordered elements", "window not rank-sorted at element 1", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			e[0], e[1] = e[1], e[0]
			return w, e, 2, 4, false, 7
		}},
		{"tampered TRS", "range proof does not bind to its root", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			e[1].TRS += 0.25
			return w, e, 2, 4, false, 7
		}},
		// The payload also decides where its bucket ends: the cut moves.
		{"tampered payload", "group 3 range reaches bucket 2 of 1", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			e[2].Sealed = append([]byte{}, e[2].Sealed...)
			e[2].Sealed[0] ^= 1
			return w, e, 2, 4, false, 7
		}},
		{"dropped element", "window segment holds", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e[:len(e)-1], 2, 4, false, 7
		}},
		{"dropped element claimed exhausted", "window segment holds", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e[:len(e)-1], 2, 4, true, 7
		}},
		{"foreign group in element", "element 0 claims group 2 outside the caller's view", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			e[0].Group = 2
			return w, e, 2, 4, false, 7
		}},
		{"wrong offset", "skipped prefix holds 2 elements, offset is 3", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e, 3, 4, false, 7
		}},
		{"exhausted flag forged", "exhausted flag true, proofs say false", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			return w, e, 2, 4, true, 7
		}},
		{"group headers reordered", "group headers not strictly ascending", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			w.Groups[0], w.Groups[1] = w.Groups[1], w.Groups[0]
			return w, e, 2, 4, false, 7
		}},
		{"dropped group header", "carry no proof", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			w.Groups = w.Groups[:len(w.Groups)-1]
			return w, e, 2, 4, false, 7
		}},
		{"allowed group made opaque", "group 3 of the caller's view carried opaque", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Group == 3 {
					hh := HeaderHash(3, w.Groups[i].Count, *w.Groups[i].Root)
					w.Groups[i] = GroupWindow{Group: 3, Opaque: &hh}
				}
			}
			// Keep only group-1 elements so the missing-proof check is
			// not what fires first.
			var kept []WindowElement
			for _, el := range e {
				if el.Group == 1 {
					kept = append(kept, el)
				}
			}
			return w, kept, 2, 4, false, 7
		}},
		{"opaque group with window fields", "opaque group 2 carries window fields", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Opaque != nil {
					w.Groups[i].Count = 2
				}
			}
			return w, e, 2, 4, false, 7
		}},
		{"tampered group root", "range proof does not bind to its root", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Root != nil {
					r := *w.Groups[i].Root
					r[0] ^= 1
					w.Groups[i].Root = &r
					break
				}
			}
			return w, e, 2, 4, false, 7
		}},
		{"padded range proof", "range proof does not bind to its root", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Root != nil {
					w.Groups[i].Path = append(w.Groups[i].Path, Node{Count: 1})
					break
				}
			}
			return w, e, 2, 4, false, 7
		}},
		{"shifted group range", "group 1 window segment holds 2 elements, range claims 3", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Root != nil && w.Groups[i].Start > 0 {
					w.Groups[i].Start--
					break
				}
			}
			return w, e, 2, 4, false, 7
		}},
		// Succ ran to the run's end without the rule ending its bucket.
		{"inflated group count", "group 1 successor edge does not end where its bucket does", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Root != nil {
					w.Groups[i].Count++
					break
				}
			}
			return w, e, 2, 4, false, 7
		}},
		{"boundary stripped", "predecessor edge carries 0 elements at start 1", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			for i := range w.Groups {
				if w.Groups[i].Pred != nil {
					w.Groups[i].Pred = nil
					break
				}
			}
			return w, e, 2, 4, false, 7
		}},
		{"tampered root", "headers do not rebuild the advertised root", func(w *Window, e []WindowElement) (*Window, []WindowElement, int, int, bool, uint64) {
			w.Root[0] ^= 1
			return w, e, 2, 4, false, 7
		}},
	}
	for _, tc := range cases {
		w, elems, _ := build()
		mw, me, off, cnt, exh, ver := tc.mutate(w, elems)
		err := VerifyWindow(mw, allowed, off, cnt, me, exh, ver)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected with %q, want the check %q", tc.name, err, tc.want)
		}
	}
	// Sanity: the unmutated window still verifies (build() is honest).
	w, elems, exhausted := build()
	if err := VerifyWindow(w, allowed, 2, 4, elems, exhausted, 7); err != nil {
		t.Fatalf("baseline window rejected: %v", err)
	}
}

// TestVerifyWindowBoundaryPinning is the adjacency attack: a server
// withholding a high-ranking element and substituting a lower one must
// be caught by the boundary checks even when every substituted element
// is genuinely committed.
func TestVerifyWindowBoundaryPinning(t *testing.T) {
	groups, allowed := fixture()
	// Honest [0,3) is a1, c1, a2. Serve a1, c1, c2 instead: c2 is
	// committed, the window is still rank-sorted, but a2 (TRS 7) was
	// skipped — group 1's Succ boundary must expose it.
	w, _, _ := buildWindow(7, groups, allowed, 0, 3)
	forged := []WindowElement{
		{TRS: 9.5, Sealed: []byte("a1"), Group: 1},
		{TRS: 9.0, Sealed: []byte("c1"), Group: 3},
		{TRS: 6.0, Sealed: []byte("c2"), Group: 3},
	}
	// The forged window needs forged per-group ranges too; rebuild them
	// the way a cheating server would (group 1 end=1, group 3 end=2)
	// and check some check still fires.
	runs := map[int][]pEl{}
	for g, els := range groups {
		run := append([]pEl{}, els...)
		sort.Slice(run, func(i, j int) bool {
			return cmpRank(run[i].trs, run[i].sealed, run[j].trs, run[j].sealed) < 0
		})
		runs[g] = run
	}
	for i := range w.Groups {
		gw := &w.Groups[i]
		if gw.Root == nil {
			continue
		}
		switch gw.Group {
		case 1:
			gw.Start, gw.End = 0, 1
		case 3:
			gw.Start, gw.End = 0, 2
		}
		var hb int
		gw.Pred, gw.Succ, gw.First, hb = edges(runs[gw.Group], gw.Start, gw.End)
		gw.Path = RangeProof(runBuckets(runs[gw.Group]), gw.First, hb)
	}
	err := VerifyWindow(w, allowed, 0, 3, forged, false, 7)
	if err == nil {
		t.Fatal("withheld-element window accepted")
	}
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v does not wrap ErrInvalid", err)
	}
}

// TestVerifyWindowEdgeBuckets: the edge elements that are not the
// window's predecessor or successor are checked by nothing but the
// bucket hash they share with it, so forging one must break the range
// proof; and Succ must end where the boundary rule ends its bucket, so
// one element more or fewer is refused before any hash is compared.
// The windows are scanFixture's where group 1's edges hold two elements
// or more.
func TestVerifyWindowEdgeBuckets(t *testing.T) {
	groups, allowed := scanFixture()
	tried := 0
	for offset := 1; offset < 60; offset++ {
		w, elems, exhausted := buildWindow(7, groups, allowed, offset, 3)
		gw := &w.Groups[0]
		if gw.Group != 1 || len(gw.Pred) < 2 || len(gw.Succ) < 2 {
			continue
		}
		tried++
		if err := VerifyWindow(w, allowed, offset, 3, elems, exhausted, 7); err != nil {
			t.Fatalf("offset %d: honest window rejected: %v", offset, err)
		}
		pred, succ := gw.Pred, gw.Succ
		for _, tc := range []struct {
			name, want string
			forge      func(gw *GroupWindow)
		}{
			{"pred", "group 1 range proof does not bind to its root", func(gw *GroupWindow) {
				gw.Pred = slices.Clone(pred)
				gw.Pred[0].TRS += 1
			}},
			{"succ", "group 1 range proof does not bind to its root", func(gw *GroupWindow) {
				gw.Succ = slices.Clone(succ)
				gw.Succ[len(succ)-1].TRS -= 1
			}},
			{"short succ", "group 1 successor edge does not end where its bucket does", func(gw *GroupWindow) {
				gw.Succ = succ[:len(succ)-1]
			}},
			{"long succ", "group 1 successor edge", func(gw *GroupWindow) {
				gw.Succ = append(slices.Clone(succ), Boundary{TRS: -1, Sealed: []byte("extra")})
			}},
		} {
			w, elems, exhausted := buildWindow(7, groups, allowed, offset, 3)
			tc.forge(&w.Groups[0])
			err := VerifyWindow(w, allowed, offset, 3, elems, exhausted, 7)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("offset %d: forged %s edge: %v, want %q", offset, tc.name, err, tc.want)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no window with edges of two elements or more")
	}
}
