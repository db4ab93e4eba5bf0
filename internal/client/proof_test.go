package client

// Tamper suite for verified search: a fault-injecting store.Backend
// sits under a real server and mutates proved query results in every
// way a dishonest shard could, and a fault-injecting Transport above it
// mutates the answers the server sent — continuations included, which
// the server derives from the backend's proof on the way out. WithProof
// must turn each class into ErrProofInvalid before anything is
// decrypted; unproven search — by design — swallows the silent classes
// without noticing.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// tamperBackend wraps a real Backend and mutates query results on the
// way out — the model of a compromised shard that still holds the
// honest committed state.
type tamperBackend struct {
	store.Backend
	mu     sync.Mutex
	proved func(*store.QueryResult)
	plain  func(*store.QueryResult)
}

func (b *tamperBackend) set(proved, plain func(*store.QueryResult)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.proved, b.plain = proved, plain
}

func (b *tamperBackend) QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	res, err := b.Backend.QueryProved(list, allowed, offset, count)
	b.mu.Lock()
	f := b.proved
	b.mu.Unlock()
	if err == nil && f != nil {
		res.Elements = append([]store.Element{}, res.Elements...)
		f(&res)
	}
	return res, err
}

func (b *tamperBackend) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	res, err := b.Backend.Query(list, allowed, offset, count)
	b.mu.Lock()
	f := b.plain
	b.mu.Unlock()
	if err == nil && f != nil {
		res.Elements = append([]store.Element{}, res.Elements...)
		f(&res)
	}
	return res, err
}

// tamperTransport sits between a client and the server and rewrites
// what crosses it: before changes a sub-query on its way out, after an
// answered continuation (handed a copy of its proof it may mutate) on
// its way back, reporting whether it changed anything.
type tamperTransport struct {
	Local
	mu     sync.Mutex
	before func(q *server.ListQuery)
	after  func(q server.ListQuery, resp *server.QueryResponse) bool
	fired  atomic.Int64
}

func (t *tamperTransport) set(before func(*server.ListQuery), after func(server.ListQuery, *server.QueryResponse) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.before, t.after = before, after
	t.fired.Store(0)
}

func (t *tamperTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	t.mu.Lock()
	before, after := t.before, t.after
	t.mu.Unlock()
	if before != nil {
		queries = slices.Clone(queries)
		for i := range queries {
			before(&queries[i])
		}
	}
	res, err := t.Local.QueryBatch(ctx, toks, queries)
	if err != nil || after == nil {
		return res, err
	}
	for i := range res.Responses {
		resp := &res.Responses[i]
		if resp.Proof == nil || !resp.Proof.Continued {
			continue
		}
		// The server's paths and boundaries alias what its store keeps.
		w := *resp.Proof
		w.Groups = slices.Clone(w.Groups)
		for j := range w.Groups {
			w.Groups[j].Path = slices.Clone(w.Groups[j].Path)
		}
		resp.Proof = &w
		if after(queries[i], resp) {
			t.fired.Add(1)
		}
	}
	return res, err
}

// newTamperHarness is newHarness over a tamperBackend, with the
// injector handle returned alongside.
func newTamperHarness(t *testing.T, seed uint64) (*harness, *tamperBackend) {
	t.Helper()
	p := corpus.ProfileStudIP()
	p.NumDocs = 160
	p.VocabSize = 1500
	p.Topics = 3
	c := corpus.Generate(p, seed)
	split := corpus.NewSplit(c, 0.3, seed)
	st := rstf.TrainStore(
		corpus.TrainingScores(c, split.Train),
		corpus.TrainingScores(c, split.Control),
		rstf.StoreConfig{FallbackSeed: seed},
	)
	plan, err := zerber.BFM(zerber.FromCorpus(c), 32)
	if err != nil {
		t.Fatal(err)
	}
	tb := &tamperBackend{Backend: store.NewMemory()}
	srv := server.NewWithBackend([]byte("tamper-secret"), time.Hour, tb)
	keys := map[int]crypt.GroupKey{}
	groups := make([]int, c.Groups)
	for g := 0; g < c.Groups; g++ {
		keys[g] = crypt.KeyFromPassphrase("group-" + string(rune('a'+g)))
		groups[g] = g
	}
	srv.RegisterUser("writer", groups...)
	cl, err := New(Local{S: srv}, Config{Plan: plan, Store: st, Codec: crypt.GCMCodec{}, Keys: keys})
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
	return &harness{c: c, plan: plan, store: st, srv: srv, keys: keys, cl: cl}, tb
}

func TestWithProofMatchesUnproven(t *testing.T) {
	h, _ := newTamperHarness(t, 21)
	terms := h.c.TermsByDF()
	query := []corpus.TermID{terms[0], terms[4], terms[11]}
	plain, _, err := h.cl.Search(context.Background(), query, 10)
	if err != nil {
		t.Fatal(err)
	}
	proved, stats, err := h.cl.Search(context.Background(), query, 10, WithProof())
	if err != nil {
		t.Fatalf("proved search: %v", err)
	}
	if !reflect.DeepEqual(plain, proved) {
		t.Fatalf("proved results differ from plain:\nplain  %v\nproved %v", plain, proved)
	}
	if stats.Requests < len(query) {
		t.Fatalf("proved search recorded %d requests for %d terms", stats.Requests, len(query))
	}
}

// TestWithProofDetectsTampering is the detection matrix: every class
// of server misbehavior must surface as ErrProofInvalid, whatever the
// rounds carry: "batched" rounds carry two lists (b=2, so there are
// follow-ups), "serial" ones a single list over many rounds (one term
// at b=1). Each search asks for the top 8, deep enough that a serial
// scan's continuation reaches past its group's first four-leaf node,
// where a continuation first carries a path hash. The first classes tamper at the backend, with the full
// proof a continuation is then derived from; the rest tamper with
// continuations as they arrive. Each class queries its own terms so
// one class's poisoned cache entries cannot mask another's mutation.
func TestWithProofDetectsTampering(t *testing.T) {
	h, tb := newTamperHarness(t, 23)
	tt := &tamperTransport{Local: Local{S: h.srv}}
	cl, err := New(tt, h.cl.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	terms := h.c.TermsByDF()
	classes := []struct {
		name    string
		backend func(*store.QueryResult)
		resp    func(q server.ListQuery, resp *server.QueryResponse) bool
	}{
		{"dropped element", func(r *store.QueryResult) {
			if len(r.Elements) > 0 {
				r.Elements = r.Elements[:len(r.Elements)-1]
			}
		}, nil},
		{"reordered window", func(r *store.QueryResult) {
			if len(r.Elements) >= 2 {
				r.Elements[0], r.Elements[1] = r.Elements[1], r.Elements[0]
			}
		}, nil},
		{"forged payload", func(r *store.QueryResult) {
			if len(r.Elements) > 0 {
				s := append([]byte{}, r.Elements[0].Sealed...)
				s[0] ^= 1
				r.Elements[0].Sealed = s
			}
		}, nil},
		{"forged TRS", func(r *store.QueryResult) {
			if len(r.Elements) > 0 {
				r.Elements[0].TRS += 0.125
			}
		}, nil},
		{"forged exhausted flag", func(r *store.QueryResult) {
			r.Exhausted = !r.Exhausted
		}, nil},
		{"forged version", func(r *store.QueryResult) {
			r.Version++
		}, nil},
		{"stripped proof", func(r *store.QueryResult) {
			r.Proof = nil
		}, nil},
		{"forged root", func(r *store.QueryResult) {
			if r.Proof != nil {
				w := *r.Proof
				w.Root[0] ^= 1
				r.Proof = &w
			}
		}, nil},
		{"forged right-path hash", nil, func(_ server.ListQuery, resp *server.QueryResponse) bool {
			for i := range resp.Proof.Groups {
				if path := resp.Proof.Groups[i].Path; len(path) > 0 {
					path[len(path)-1].Root[0] ^= 1
					return true
				}
			}
			return false
		}},
		{"forged element inside an edge bucket", nil, func(_ server.ListQuery, resp *server.QueryResponse) bool {
			// Not the window's predecessor or successor: an element that
			// travels only to complete the bucket one of them shares.
			for i := range resp.Proof.Groups {
				gw := &resp.Proof.Groups[i]
				for _, edge := range []struct {
					els []proof.Boundary
					at  int
				}{{gw.Pred, 0}, {gw.Succ, len(gw.Succ) - 1}} {
					if len(edge.els) < 2 {
						continue
					}
					forged := slices.Clone(edge.els)
					forged[edge.at].Sealed = append([]byte{1}, forged[edge.at].Sealed...)
					if edge.at == 0 {
						gw.Pred = forged
					} else {
						gw.Succ = forged
					}
					return true
				}
			}
			return false
		}},
		{"stripped succ", nil, func(_ server.ListQuery, resp *server.QueryResponse) bool {
			for i := range resp.Proof.Groups {
				if gw := &resp.Proof.Groups[i]; gw.Succ != nil {
					gw.Succ = nil
					return true
				}
			}
			return false
		}},
		{"end shifted by one", nil, func(_ server.ListQuery, resp *server.QueryResponse) bool {
			if len(resp.Proof.Groups) == 0 {
				return false
			}
			resp.Proof.Groups[0].End++
			return true
		}},
		{"continuation after the version moved on", nil, func(q server.ListQuery, resp *server.QueryResponse) bool {
			// A write lands between the rounds; the server answers at the
			// new version but trims as if the client had verified that.
			sealed, err := h.cl.cfg.Codec.Seal(crypt.Element{Doc: 1 << 30, Term: terms[0], Score: 0.5}, h.keys[0])
			if err != nil {
				t.Error(err)
				return false
			}
			ctx := context.Background()
			el := server.StoredElement{Sealed: sealed, TRS: 0.5, Group: 0}
			if err := h.srv.InsertBatch(ctx, h.cl.byGrp[0], []server.InsertOp{{List: q.List, Element: el}}); err != nil {
				t.Error(err)
				return false
			}
			q.ProofFrom = nil
			fresh, err := h.srv.QueryBatch(ctx, h.cl.tokens, []server.ListQuery{q})
			if err != nil {
				t.Error(err)
				return false
			}
			*resp = fresh[0]
			resp.Proof = proof.Continue(resp.Proof, resp.Elements, nil)
			return true
		}},
		{"continuation group without state", nil, func(_ server.ListQuery, resp *server.QueryResponse) bool {
			gs := resp.Proof.Groups
			if len(gs) == 0 {
				return false
			}
			gs[len(gs)-1].Group += 1000
			return true
		}},
	}
	if len(terms) < 2*len(classes) {
		t.Fatal("corpus too small for the class matrix")
	}
	queries := func(i int) []corpus.TermID { return []corpus.TermID{terms[i], terms[len(classes)+i]} }
	schedules := map[string]func(i int) ([]corpus.TermID, []SearchOption){
		"batched": func(i int) ([]corpus.TermID, []SearchOption) {
			return queries(i), []SearchOption{WithProof(), WithInitialResponse(2)}
		},
		"serial": func(i int) ([]corpus.TermID, []SearchOption) {
			return queries(i)[:1], []SearchOption{WithProof(), WithInitialResponse(1)}
		},
	}
	for i, tc := range classes {
		for schedule, query := range schedules {
			t.Run(tc.name+"/"+schedule, func(t *testing.T) {
				tb.set(tc.backend, nil)
				tt.set(nil, tc.resp)
				defer tb.set(nil, nil)
				defer tt.set(nil, nil)
				q, opts := query(i)
				// Top-32: scans long enough that their continuations carry
				// right-path nodes, which buckets of several elements keep
				// out of a top-8 scan's.
				_, _, err := cl.Search(context.Background(), q, 32, opts...)
				if tc.resp != nil && tt.fired.Load() == 0 {
					t.Fatal("no continuation the class applies to crossed the transport")
				}
				if err == nil {
					t.Fatal("tampered window accepted")
				}
				if !errors.Is(err, ErrProofInvalid) {
					t.Fatalf("got %v, want ErrProofInvalid", err)
				}
			})
		}
	}
	// With injection off again the same terms verify cleanly — the
	// backend state itself was never corrupted.
	for i := range classes {
		if _, _, err := cl.Search(context.Background(), queries(i), 5, WithProof()); err != nil {
			t.Fatalf("honest search after class %d still failing: %v", i, err)
		}
	}
}

// TestFullProofAnswersContinuationRequest: a server may always answer
// a continuation request with the full proof — one that ignores
// ProofFrom is an older server, not a dishonest one.
func TestFullProofAnswersContinuationRequest(t *testing.T) {
	h, _ := newTamperHarness(t, 26)
	tt := &tamperTransport{Local: Local{S: h.srv}}
	cl, err := New(tt, h.cl.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	var asked atomic.Int64
	tt.set(func(q *server.ListQuery) {
		if q.ProofFrom != nil {
			asked.Add(1)
			q.ProofFrom = nil
		}
	}, nil)
	terms := h.c.TermsByDF()
	query := []corpus.TermID{terms[2], terms[9]}
	proved, _, err := cl.Search(context.Background(), query, 5, WithProof(), WithInitialResponse(1))
	if err != nil {
		t.Fatalf("full proofs answering continuation requests: %v", err)
	}
	if asked.Load() == 0 {
		t.Fatal("no sub-query asked for a continuation")
	}
	plain, _, err := h.cl.Search(context.Background(), query, 5, WithInitialResponse(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, proved) {
		t.Fatalf("proved results differ from plain:\nplain  %v\nproved %v", plain, proved)
	}
}

// TestUnprovenSearchSilentOnTamper pins down what proofs buy: the
// same element-dropping server that WithProof rejects is answered
// without any error by an unproven search — it simply returns wrong
// results.
func TestUnprovenSearchSilentOnTamper(t *testing.T) {
	h, tb := newTamperHarness(t, 24)
	terms := h.c.TermsByDF()
	term := terms[len(terms)-1] // rare term: single exhausted round
	df := h.c.DF(term)
	if df < 2 {
		term = terms[len(terms)/2]
		df = h.c.DF(term)
	}
	drop := func(r *store.QueryResult) {
		if r.Exhausted && len(r.Elements) > 0 {
			r.Elements = r.Elements[:len(r.Elements)-1]
		}
	}
	tb.set(drop, drop)
	defer tb.set(nil, nil)
	got, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, df+10, WithInitialResponse(df+10))
	if err != nil {
		t.Fatalf("unproven search over tampering server errored: %v", err)
	}
	if len(got) >= df {
		t.Fatalf("drop injector inert: %d results, df %d", len(got), df)
	}
	if _, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, df+10, WithInitialResponse(df+10), WithProof()); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("proved search over the same server: got %v, want ErrProofInvalid", err)
	}
}

func TestWithProofHTTPEndToEnd(t *testing.T) {
	h, _ := newTamperHarness(t, 25)
	ts := httptest.NewServer(h.srv.Handler())
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	terms := h.c.TermsByDF()
	query := []corpus.TermID{terms[1], terms[6]}
	plain, _, err := remote.Search(context.Background(), query, 8)
	if err != nil {
		t.Fatal(err)
	}
	proved, _, err := remote.Search(context.Background(), query, 8, WithProof())
	if err != nil {
		t.Fatalf("proved search over HTTP: %v", err)
	}
	if !reflect.DeepEqual(plain, proved) {
		t.Fatal("proved HTTP results differ from plain")
	}
}

// miniWindow commits a single-group list holding exactly els (already
// rank-sorted) and returns the full-window proof for it.
func miniWindow(version uint64, els []server.StoredElement) *proof.Window {
	var b proof.Bucketer
	var leaves proof.Buckets
	add := func(nd proof.Node) {
		leaves.Hashes, leaves.Sizes = append(leaves.Hashes, nd.Root), append(leaves.Sizes, uint8(nd.Count))
	}
	for _, e := range els {
		if nd, ok := b.Add(e.TRS, e.Sealed); ok {
			add(nd)
		}
	}
	if nd, ok := b.Flush(); ok {
		add(nd)
	}
	root := proof.TreeRoot(leaves).Root
	gw := proof.GroupWindow{Group: 1, Count: len(els), Root: &root, Buckets: leaves.Len(), Start: 0, End: len(els)}
	content := proof.ContentRoot([]proof.HeaderEntry{{Group: 1, HH: proof.HeaderHash(1, len(els), root)}})
	return &proof.Window{
		Version: version,
		Root:    proof.ListRoot(version, content),
		Groups:  []proof.GroupWindow{gw},
	}
}

// TestProofStatePinsRoots is the equivocation check: two internally
// consistent commitments to different content under the same (list,
// version) must be rejected on the second sighting.
func TestProofStatePinsRoots(t *testing.T) {
	ps := &proofState{allowed: map[int]bool{1: true}, pins: map[pinKey]proof.Hash{}}
	q := server.ListQuery{List: 7, Offset: 0, Count: 10, Proof: true}
	elsA := []server.StoredElement{
		{Sealed: []byte("x1"), TRS: 3, Group: 1},
		{Sealed: []byte("x2"), TRS: 2, Group: 1},
	}
	respA := server.QueryResponse{Elements: elsA, Exhausted: true, Version: 42, Proof: miniWindow(42, elsA)}
	if _, err := ps.verify(q, respA, nil); err != nil {
		t.Fatalf("first honest window: %v", err)
	}
	// Re-seeing the identical commitment is fine.
	if _, err := ps.verify(q, respA, nil); err != nil {
		t.Fatalf("repeat of pinned window: %v", err)
	}
	elsB := []server.StoredElement{
		{Sealed: []byte("y1"), TRS: 9, Group: 1},
	}
	respB := server.QueryResponse{Elements: elsB, Exhausted: true, Version: 42, Proof: miniWindow(42, elsB)}
	if _, err := ps.verify(q, respB, nil); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("equivocating window: got %v, want ErrProofInvalid", err)
	}
	// A different version is a new pin, not equivocation.
	respC := server.QueryResponse{Elements: elsB, Exhausted: true, Version: 43, Proof: miniWindow(43, elsB)}
	if _, err := ps.verify(q, respC, nil); err != nil {
		t.Fatalf("new version rejected: %v", err)
	}
}
