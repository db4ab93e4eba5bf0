package proof_test

// FuzzVerifyWindow hardens the verifier a client runs on what an
// untrusted server answers. The input is a /v2/query response frame —
// the one grammar proofs travel in (server/wire.go) — plus the (offset,
// count) the client would have asked for; the fuzzer mutates counts,
// ranges, paths, boundaries and elements through the frame's bytes.
//
// The harness plays an honest client of one fixed store: it holds the
// store (testdata/fuzz_store.zsnap, so its versions and therefore its
// roots are the same in every process) and pins the list root the store
// commits to. Whatever arrives, VerifyWindow must return — no panic, and
// a recursion no deeper than the tree shape allows however many leaves
// a group claims to have (the goroutine stack is capped far below what a
// walk of Count nodes would need) — and if it accepts a window under the
// pinned root, the window is exactly what the store answers for that
// (offset, count): same elements, same exhausted flag, same version.
//
// The seed corpus under testdata/fuzz/FuzzVerifyWindow is honest
// windows of that store, written by `go test -run TestFuzzSeedsCurrent
// -update` on the commit that made bucket boundaries content-defined
// and interior nodes counted. The store file is older: it carries a
// leaf block of one hash per element, which the snapshot reader now
// skips, so it opens unchanged and its lists hash their buckets on
// first audit. -update writes a new store only where none exists (new
// versions, so new roots).

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"zerberr/internal/proof"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

const (
	fuzzList              = zerber.ListID(5)
	fuzzStoreFile         = "fuzz_store.zsnap"
	fuzzCorpusDir         = "testdata/fuzz/FuzzVerifyWindow"
	continuationCorpusDir = "testdata/fuzz/FuzzVerifyContinuation"
)

// fuzzView is the honest client's view: group 1 exists in the store but
// travels opaque.
var fuzzView = map[int]bool{0: true, 2: true}

// fuzzQueries are the windows the seed corpus holds: the head, a deep
// window with boundaries either side, the ragged tail, and one past the
// end; then a window whose group 2 successor edge is a bucket the rule
// cut at MaxBucket (0, 4), one whose groups both end exactly on a
// bucket boundary (12, 5), one whose group 2 predecessor edge is that
// MaxBucket bucket (16, 3), and one whose edges are buckets the rule
// cut at MinBucket (4, 6).
var fuzzQueries = [][2]int{{0, 5}, {7, 10}, {20, 40}, {60, 3}, {0, 100}, {0, 4}, {12, 5}, {16, 3}, {4, 6}}

func updating() bool {
	f := flag.Lookup("update") // golden_test.go's, same test binary
	return f != nil && f.Value.String() == "true"
}

// newFuzzStore builds the fixture store from scratch: 48 elements over
// three groups of one list, with score ties.
func newFuzzStore(tb testing.TB) *store.Memory {
	rng := rand.New(rand.NewSource(48))
	m := store.NewMemory()
	for i := 0; i < 48; i++ {
		sealed := make([]byte, 12)
		rng.Read(sealed)
		el := store.Element{Sealed: sealed, TRS: float64(rng.Intn(20)) / 4, Group: i % 3}
		if err := m.Insert(fuzzList, el); err != nil {
			tb.Fatal(err)
		}
	}
	return m
}

// loadFuzzStore opens the committed fixture and returns it with the
// list root it commits to.
func loadFuzzStore(tb testing.TB) (*store.Memory, proof.Hash) {
	data, err := os.ReadFile(filepath.Join("testdata", fuzzStoreFile))
	if err != nil {
		tb.Fatal(err)
	}
	m := store.NewMemory()
	if err := m.ImportSnapshot(data); err != nil {
		tb.Fatal(err)
	}
	c, err := m.Commitment(fuzzList)
	if err != nil {
		tb.Fatal(err)
	}
	return m, c.Root
}

// honestFrame is the response frame an honest server sends for one
// proved window of the store.
func honestFrame(tb testing.TB, m *store.Memory, offset, count int) []byte {
	res, err := m.QueryProved(fuzzList, fuzzView, offset, count)
	if err != nil {
		tb.Fatal(err)
	}
	return server.AppendQueryResponse(nil, []server.QueryResponse{{
		Elements: res.Elements, Exhausted: res.Exhausted, Version: res.Version, Proof: res.Proof,
	}})
}

func corpusEntry(frame []byte, offset, count int) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\nint(%d)\n", frame, offset, count))
}

// TestFuzzSeedsCurrent: the committed corpus is exactly the honest
// windows of the committed store, byte for byte — proofs this build
// generates are the proofs the previous one did. With -update it
// rewrites the corpus instead, and writes the store if it is missing.
func TestFuzzSeedsCurrent(t *testing.T) {
	if updating() {
		if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		storeFile := filepath.Join("testdata", fuzzStoreFile)
		if _, err := os.Stat(storeFile); os.IsNotExist(err) {
			data, _, err := newFuzzStore(t).ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(storeFile, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, _ := loadFuzzStore(t)
	for _, q := range fuzzQueries {
		name := filepath.Join(fuzzCorpusDir, fmt.Sprintf("seed_window_%02d_%03d", q[0], q[1]))
		want := corpusEntry(honestFrame(t, m, q[0], q[1]), q[0], q[1])
		if updating() {
			if err := os.WriteFile(name, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is not the window this build serves for offset %d count %d", name, q[0], q[1])
		}
	}
}

func FuzzVerifyWindow(f *testing.F) {
	m, pinned := loadFuzzStore(f)
	// A second valid shape beside the committed corpus: an empty,
	// exhausted window far past the end.
	f.Add(honestFrame(f, m, 500, 4), 500, 4)

	f.Fuzz(func(t *testing.T, frame []byte, offset, count int) {
		resps, err := server.DecodeQueryResponse(frame)
		if err != nil {
			return
		}
		// The deepest honest recursion is one frame per bit of a group's
		// claimed count; 1 MiB would not hold a walk of even 2^14 nodes.
		defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
		for _, resp := range resps {
			elems := make([]proof.WindowElement, len(resp.Elements))
			for i, el := range resp.Elements {
				elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
			}
			if proof.VerifyWindow(resp.Proof, fuzzView, offset, count, elems, resp.Exhausted, resp.Version) != nil {
				continue
			}
			// A window of no elements at count 0 commits to nothing a
			// search uses (the client never asks for it); everything
			// else accepted under the pinned root must be the truth.
			if resp.Proof.Root != pinned || count < 1 {
				continue
			}
			want, err := m.QueryProved(fuzzList, fuzzView, offset, count)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Version != want.Version || resp.Exhausted != want.Exhausted || len(resp.Elements) != len(want.Elements) {
				t.Fatalf("accepted offset %d count %d under the pinned root: %d elements exhausted=%v version %d, the store answers %d exhausted=%v version %d",
					offset, count, len(resp.Elements), resp.Exhausted, resp.Version, len(want.Elements), want.Exhausted, want.Version)
			}
			for i, el := range resp.Elements {
				w := want.Elements[i]
				if el.TRS != w.TRS || el.Group != w.Group || !bytes.Equal(el.Sealed, w.Sealed) {
					t.Fatalf("accepted offset %d count %d under the pinned root: element %d is not the store's", offset, count, i)
				}
			}
		}
	})
}

// FuzzVerifyContinuation hardens VerifyNext on continuations. The
// harness verifies the store's honest window at (offset, count) — a
// scan's previous round — and feeds each window the frame decodes to
// as the next round, at the offset where that one ended and for next
// elements. Whatever VerifyNext accepts under the pinned root must be
// what the store answers there.
//
// The seed corpus under testdata/fuzz/FuzzVerifyContinuation is the
// honest continuation, at twice the count, of each fuzzQueries window a
// scan would continue from (the others end the list), written by
// `go test -run TestContinuationSeedsCurrent -update`.
func FuzzVerifyContinuation(f *testing.F) {
	m, pinned := loadFuzzStore(f)
	// A continuation that ends the list, beside the committed corpus.
	f.Add(honestContinuation(f, m, 0, 5, 100), 0, 5, 100)

	f.Fuzz(func(t *testing.T, frame []byte, offset, count, next int) {
		if offset < 0 || count < 1 || count > 1<<10 || next < 1 {
			return
		}
		first, err := m.QueryProved(fuzzList, fuzzView, offset, count)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := proof.VerifyNext(nil, first.Proof, fuzzView, offset, count, windowElements(first.Elements), first.Exhausted, first.Version)
		if err != nil {
			t.Fatalf("the store's own window at offset %d count %d: %v", offset, count, err)
		}
		if prev == nil {
			return
		}
		resps, err := server.DecodeQueryResponse(frame)
		if err != nil {
			return
		}
		at := offset + len(first.Elements)
		defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
		for _, resp := range resps {
			if _, err := proof.VerifyNext(prev, resp.Proof, fuzzView, at, next, windowElements(resp.Elements), resp.Exhausted, resp.Version); err != nil {
				continue
			}
			if resp.Proof.Root != pinned {
				continue
			}
			want, err := m.QueryProved(fuzzList, fuzzView, at, next)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Version != want.Version || resp.Exhausted != want.Exhausted || len(resp.Elements) != len(want.Elements) {
				t.Fatalf("accepted offset %d count %d after [%d,+%d): %d elements exhausted=%v version %d, the store answers %d exhausted=%v version %d",
					at, next, offset, count, len(resp.Elements), resp.Exhausted, resp.Version, len(want.Elements), want.Exhausted, want.Version)
			}
			for i, el := range resp.Elements {
				w := want.Elements[i]
				if el.TRS != w.TRS || el.Group != w.Group || !bytes.Equal(el.Sealed, w.Sealed) {
					t.Fatalf("accepted offset %d count %d after [%d,+%d): element %d is not the store's", at, next, offset, count, i)
				}
			}
		}
	})
}

// TestProofEndsAreTheCut: the range ends the store hands proof.Continue
// (QueryResult.ProofEnds) are where cutting each window by the boundary
// rule ends its groups' ranges: the continuation is the same either
// way, over windows of a list of groups of a few hundred buckets, whose
// continuations carry right-path nodes.
func TestProofEndsAreTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := store.NewMemory()
	const n = 3000
	for i := range n {
		sealed := make([]byte, 12)
		rng.Read(sealed)
		el := store.Element{Sealed: sealed, TRS: float64(rng.Intn(400)) / 4, Group: i % 3}
		if err := m.Insert(fuzzList, el); err != nil {
			t.Fatal(err)
		}
	}
	carried := 0
	for range 300 {
		offset, count := rng.Intn(n), 1+rng.Intn(80)
		res, err := m.QueryProved(fuzzList, fuzzView, offset, count)
		if err != nil {
			t.Fatal(err)
		}
		got := proof.Continue(res.Proof, res.Elements, res.ProofEnds)
		want := proof.Continue(res.Proof, res.Elements, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window (%d, %d): the store's range ends %v trim another continuation than the cut", offset, count, res.ProofEnds)
		}
		for _, gw := range got.Groups {
			carried += len(gw.Path)
		}
	}
	if carried == 0 {
		t.Fatal("no continuation carried a path node: the check compared nothing")
	}
}

// honestContinuation is the response frame an honest server sends for
// the window of next elements that follows the store's window at
// (offset, count), to a client that verified that one.
func honestContinuation(tb testing.TB, m *store.Memory, offset, count, next int) []byte {
	first, err := m.QueryProved(fuzzList, fuzzView, offset, count)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := m.QueryProved(fuzzList, fuzzView, offset+len(first.Elements), next)
	if err != nil {
		tb.Fatal(err)
	}
	return server.AppendQueryResponse(nil, []server.QueryResponse{{
		Elements: res.Elements, Exhausted: res.Exhausted, Version: res.Version, Proof: proof.Continue(res.Proof, res.Elements, res.ProofEnds),
	}})
}

func windowElements(els []store.Element) []proof.WindowElement {
	out := make([]proof.WindowElement, len(els))
	for i, el := range els {
		out[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	return out
}

// TestContinuationSeedsCurrent: the committed FuzzVerifyContinuation
// corpus is exactly the honest continuations of the committed store.
// With -update it writes them, leaving the store and the other corpus
// alone.
func TestContinuationSeedsCurrent(t *testing.T) {
	m, _ := loadFuzzStore(t)
	wrote := 0
	for _, q := range fuzzQueries {
		first, err := m.QueryProved(fuzzList, fuzzView, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		if first.Exhausted || len(first.Elements) == 0 {
			continue // a scan stops here: nothing continues this window
		}
		next := 2 * q[1]
		name := filepath.Join(continuationCorpusDir, fmt.Sprintf("seed_continuation_%02d_%03d_%03d", q[0], q[1], next))
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\nint(%d)\nint(%d)\n", honestContinuation(t, m, q[0], q[1], next), q[0], q[1], next))
		wrote++
		if updating() {
			if err := os.MkdirAll(continuationCorpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is not the continuation this build serves", name)
		}
	}
	if wrote == 0 {
		t.Fatal("no fuzzQueries window is continued")
	}
}
