package client

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/index"
	"zerberr/internal/rank"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// harness wires a complete small system: corpus, trained store, merge
// plan, server, baseline index and a logged-in client that indexed
// everything.
type harness struct {
	c        *corpus.Corpus
	plan     *zerber.MergePlan
	store    *rstf.Store
	srv      *server.Server
	baseline *index.Index
	keys     map[int]crypt.GroupKey
	cl       *Client
}

func newHarness(t *testing.T, codec crypt.ElementCodec, seed uint64) *harness {
	t.Helper()
	p := corpus.ProfileStudIP()
	p.NumDocs = 220
	p.VocabSize = 2200
	p.Topics = 3
	c := corpus.Generate(p, seed)
	split := corpus.NewSplit(c, 0.3, 0.33, seed)
	store := rstf.TrainStore(
		corpus.TrainingScores(c, split.Train),
		corpus.TrainingScores(c, split.Control),
		rstf.StoreConfig{FallbackSeed: seed},
	)
	plan, err := zerber.BFM(zerber.FromCorpus(c), 32)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New([]byte("it-secret"), time.Hour)
	keys := map[int]crypt.GroupKey{}
	groups := make([]int, c.Groups)
	for g := 0; g < c.Groups; g++ {
		keys[g] = crypt.KeyFromPassphrase("group-" + string(rune('a'+g)))
		groups[g] = g
	}
	srv.RegisterUser("writer", groups...)
	cl, err := New(Local{S: srv}, Config{Plan: plan, Store: store, Codec: codec, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Docs {
		if err := cl.IndexDocument(context.Background(), d, d.Group); err != nil {
			t.Fatalf("indexing doc %d: %v", d.ID, err)
		}
	}
	return &harness{c: c, plan: plan, store: store, srv: srv, baseline: index.Build(c), keys: keys, cl: cl}
}

// assertSameScores checks the confidential results carry exactly the
// baseline's score sequence (document identity may differ only inside
// tied-score groups).
func assertSameScores(t *testing.T, term corpus.TermID, got, want []rank.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("term %d: %d results, want %d", term, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("term %d rank %d: score %v, want %v", term, i, got[i].Score, want[i].Score)
		}
	}
}

func TestTopKMatchesBaselineExactly(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 1)
	terms := h.c.TermsByDF()
	// Head, torso and tail terms.
	probe := []corpus.TermID{terms[0], terms[5], terms[50], terms[200], terms[len(terms)/2], terms[len(terms)-1]}
	for _, term := range probe {
		for _, k := range []int{1, 5, 10} {
			got, stats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, k, WithInitialResponse(10))
			if err != nil {
				t.Fatalf("term %d k=%d: %v", term, k, err)
			}
			want := h.baseline.TopK(term, k)
			assertSameScores(t, term, got, want)
			if stats.Requests < 1 {
				t.Fatalf("term %d: no requests recorded", term)
			}
		}
	}
}

func TestTopKCompact64MatchesWithinQuantization(t *testing.T) {
	h := newHarness(t, crypt.Compact64Codec{}, 2)
	term := h.c.TermsByDF()[10]
	got, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 10, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	want := h.baseline.TopK(term, 10)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 2e-6 {
			t.Fatalf("rank %d: score %v, want %v (beyond quantization error)", i, got[i].Score, want[i].Score)
		}
	}
}

func TestDoublingProtocolAccounting(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 3)
	// A tail term merged with many others needs follow-ups for large k.
	terms := h.c.TermsByDF()
	term := terms[len(terms)/3]
	b := 5
	got, stats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 20, WithInitialResponse(b))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests > 1 && !stats.Exhausted {
		// Total elements must follow Eq. 12: b·(2^n - 1) for n requests.
		want := b*(1<<stats.Requests) - b
		if stats.Elements != want {
			t.Fatalf("after %d requests got %d elements, Eq.12 wants %d", stats.Requests, stats.Elements, want)
		}
	}
	if stats.Bytes != stats.Elements*h.cl.Codec().WireSize() {
		t.Fatalf("bytes %d != elements %d × wire size %d", stats.Bytes, stats.Elements, h.cl.Codec().WireSize())
	}
	if len(got) == 0 {
		t.Fatal("no results")
	}
}

func TestHeadTermSingleRequest(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 4)
	// The most frequent term sits in a near-pure merged list: top-10
	// should arrive in the first response with b=10 most of the time.
	term := h.c.TermsByDF()[0]
	_, stats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 10, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 1 {
		t.Fatalf("head term took %d requests, want 1", stats.Requests)
	}
}

func TestSearchMultiTermApproximatesNormTF(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 5)
	terms := h.c.TermsByDF()
	query := []corpus.TermID{terms[2], terms[7], terms[15]}
	k := 10
	got, stats, err := h.cl.Search(context.Background(), query, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests < len(query) {
		t.Fatalf("multi-term stats %d requests for %d terms", stats.Requests, len(query))
	}
	want := h.baseline.Search(query, k, rank.NormTFScorer{})
	if ov := rank.Overlap(got, want); ov < 0.5 {
		t.Fatalf("multi-term overlap with IDF-free baseline %v, want >= 0.5", ov)
	}
}

func TestSearchExactWhenKCoversLists(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 6)
	terms := h.c.TermsByDF()
	query := []corpus.TermID{terms[1], terms[3]}
	// k larger than any df: per-term queries fetch every posting, so
	// the multi-term result must equal the baseline exactly.
	k := h.c.NumDocs() + 1
	got, _, err := h.cl.Search(context.Background(), query, k)
	if err != nil {
		t.Fatal(err)
	}
	want := h.baseline.Search(query, k, rank.NormTFScorer{})
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d: score %v, want %v", i, got[i].Score, want[i].Score)
		}
	}
}

func TestExhaustedSmallTerm(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 7)
	terms := h.c.TermsByDF()
	rare := terms[len(terms)-1]
	df := h.c.DF(rare)
	got, stats, err := h.cl.Search(context.Background(), []corpus.TermID{rare}, df+50, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != df {
		t.Fatalf("rare term returned %d results, df is %d", len(got), df)
	}
	if !stats.Exhausted {
		t.Fatal("expected exhausted stats")
	}
}

func TestACLInvisibleGroups(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 8)
	// A reader in group 0 only.
	h.srv.RegisterUser("reader", 0)
	reader, err := New(Local{S: h.srv}, Config{
		Plan:  h.plan,
		Store: h.store,
		Keys:  map[int]crypt.GroupKey{0: h.keys[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Login(context.Background(), "reader"); err != nil {
		t.Fatal(err)
	}
	term := h.c.TermsByDF()[0]
	got, _, err := reader.Search(context.Background(), []corpus.TermID{term}, h.c.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if h.c.Doc(r.Doc).Group != 0 {
			t.Fatalf("reader saw doc %d of group %d", r.Doc, h.c.Doc(r.Doc).Group)
		}
	}
	// And the group-0 view must equal the baseline restricted to group 0.
	var wantDocs int
	for _, p := range h.c.Postings(term) {
		if h.c.Doc(p.Doc).Group == 0 {
			wantDocs++
		}
	}
	if len(got) != wantDocs {
		t.Fatalf("reader got %d docs, group 0 has %d", len(got), wantDocs)
	}
}

func TestIndexRequiresLoginAndKeys(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 9)
	fresh, err := New(Local{S: h.srv}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	d := h.c.Docs[0]
	if err := fresh.IndexDocument(context.Background(), d, 0); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("unauthenticated index err = %v", err)
	}
	if _, _, err := fresh.Search(context.Background(), []corpus.TermID{1}, 5); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("unauthenticated query err = %v", err)
	}
	if err := fresh.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.IndexDocument(context.Background(), d, 99); !errors.Is(err, ErrNoGroupKey) {
		t.Fatalf("keyless group err = %v", err)
	}
}

// TestTamperedElementSurfaces states what a tampered element does to a
// search that peeks before it opens. A flipped tag or score byte leaves
// the peek on the scan's term, so the element is opened and fails
// authentication. A flipped nonce peeks as an arbitrary term, so the
// element is dropped, as if the server had omitted it — unless the
// search is proved, whose leaves hash the sealed bytes.
func TestTamperedElementSurfaces(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 10)
	// A term with at least k documents whose merged list's first window
	// holds an element of it and one of another term.
	var term corpus.TermID
	var own, other []byte
	for _, term = range h.c.TermsByDF() {
		if h.c.DF(term) < 5 {
			continue
		}
		snap, err := h.srv.Snapshot(h.cl.ListFor(term))
		if err != nil {
			t.Fatal(err)
		}
		own, other = nil, nil
		for _, el := range snap[:min(10, len(snap))] {
			plain, err := crypt.GCMCodec{}.Open(el.Sealed, h.keys[el.Group])
			if err != nil {
				t.Fatal(err)
			}
			if plain.Term == term && own == nil {
				own = el.Sealed
			}
			if plain.Term != term && other == nil {
				other = el.Sealed
			}
		}
		if own != nil && other != nil {
			break
		}
	}
	if own == nil || other == nil {
		t.Fatal("no first window mixes terms")
	}
	query := []corpus.TermID{term}
	want, _, err := h.cl.Search(context.Background(), query, 5, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	const score = 12 + 15 // the last ciphertext byte: the score's low byte
	for _, tc := range []struct {
		name   string
		target []byte
		at     int
		opts   []SearchOption
		want   error
	}{
		{"tag", own, len(own) - 1, nil, crypt.ErrDecrypt},
		{"score", own, score, nil, crypt.ErrDecrypt},
		{"nonce", other, 0, nil, nil},
		{"nonce proved", other, 0, []SearchOption{WithProof()}, ErrProofInvalid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt := &flipTransport{Local: Local{S: h.srv}, target: tc.target, at: tc.at}
			cl, err := New(tt, h.cl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Login(context.Background(), "writer"); err != nil {
				t.Fatal(err)
			}
			got, _, err := cl.Search(context.Background(), query, 5, append(tc.opts, WithInitialResponse(10))...)
			if tt.flips == 0 {
				t.Fatal("the tampered element was never sent")
			}
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want none", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("results %v, untampered %v", got, want)
			}
		})
	}
}

func TestUnplannedTermsRoundTrip(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 11)
	// A brand-new term (never trained, never merged): index a doc
	// containing it, then retrieve it.
	novel := corpus.TermID(uint32(h.c.VocabSize) + 7)
	d := &corpus.Document{
		ID:     corpus.DocID(h.c.NumDocs() + 1),
		Group:  0,
		Length: 10,
		TF:     map[corpus.TermID]int{novel: 3},
	}
	if err := h.cl.IndexDocument(context.Background(), d, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := h.cl.Search(context.Background(), []corpus.TermID{novel}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Doc != d.ID || math.Abs(got[0].Score-0.3) > 1e-9 {
		t.Fatalf("novel term results %v", got)
	}
}

func TestBadArguments(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 12)
	if _, _, err := h.cl.Search(context.Background(), []corpus.TermID{1}, 0, WithInitialResponse(10)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(Local{}, Config{}); err == nil {
		t.Fatal("config without plan accepted")
	}
}

func TestHTTPTransportEndToEnd(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 13)
	ts := httptest.NewServer(h.srv.Handler())
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	term := h.c.TermsByDF()[4]
	got, stats, err := remote.Search(context.Background(), []corpus.TermID{term}, 10, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, term, got, h.baseline.TopK(term, 10))
	if stats.Requests < 1 {
		t.Fatal("no requests recorded over HTTP")
	}
	if err := remote.Login(context.Background(), "ghost"); err == nil {
		t.Fatal("HTTP login of unknown user succeeded")
	}
}

func TestSaturatedTRSStillExact(t *testing.T) {
	// Regression: scores beyond a term's training range all map to the
	// same saturated TRS, so rank order inside the tie is arbitrary —
	// the client must rank by decrypted score, not arrival order.
	// Train term 1 on low scores only, then index docs whose scores
	// exceed the training range (TRS == 1.0 for all of them).
	store := rstf.TrainStore(
		map[corpus.TermID][]float64{1: {0.01, 0.012, 0.014, 0.016}},
		nil, rstf.StoreConfig{FallbackSeed: 5},
	)
	plan, err := zerber.BFM([]zerber.TermProb{{Term: 1, P: 0.9}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New([]byte("sat"), 0)
	srv.RegisterUser("u", 0)
	keys := map[int]crypt.GroupKey{0: crypt.KeyFromPassphrase("k")}
	cl, err := New(Local{S: srv}, Config{Plan: plan, Store: store, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "u"); err != nil {
		t.Fatal(err)
	}
	// Doc scores 0.30, 0.35, ..., all far above the training range.
	want := []float64{}
	for i := 0; i < 8; i++ {
		score := 0.30 + 0.05*float64(i)
		tf := int(score * 100)
		d := &corpus.Document{ID: corpus.DocID(i), Group: 0, Length: 100,
			TF: map[corpus.TermID]int{1: tf}}
		if err := cl.IndexDocument(context.Background(), d, 0); err != nil {
			t.Fatal(err)
		}
		want = append(want, float64(tf)/100)
	}
	got, _, err := cl.Search(context.Background(), []corpus.TermID{1}, 3, WithInitialResponse(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	// Highest scores must come back first despite the TRS ties.
	for i, wantScore := range []float64{want[7], want[6], want[5]} {
		if math.Abs(got[i].Score-wantScore) > 1e-9 {
			t.Fatalf("rank %d: score %v, want %v", i, got[i].Score, wantScore)
		}
	}
}

func TestStrictTopKMatchesDefault(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 24)
	strict, err := New(Local{S: h.srv}, Config{
		Plan: h.plan, Store: h.store, Keys: h.keys, StrictTopK: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	terms := h.c.TermsByDF()
	for _, term := range []corpus.TermID{terms[0], terms[30], terms[len(terms)/2]} {
		a, aStats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 10, WithInitialResponse(10))
		if err != nil {
			t.Fatal(err)
		}
		b, bStats, err := strict.Search(context.Background(), []corpus.TermID{term}, 10, WithInitialResponse(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("term %d: %d vs %d results", term, len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("term %d rank %d: default %v vs strict %v", term, i, a[i].Score, b[i].Score)
			}
		}
		if bStats.Requests < aStats.Requests {
			t.Fatalf("term %d: strict used fewer requests (%d) than default (%d)", term, bStats.Requests, aStats.Requests)
		}
	}
}
