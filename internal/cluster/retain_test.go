package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/server"
)

// TestRetainWindowCopies: what the window cache keeps must not alias
// the response body a window was decoded from — a retained 1 KB window
// would otherwise pin (and here, be corrupted through) the whole body.
func TestRetainWindowCopies(t *testing.T) {
	root := proof.Hash{0x52}
	sent := server.QueryResponse{
		Elements: []server.StoredElement{
			{Sealed: []byte("first"), TRS: 0.7, Group: 1},
			{Sealed: []byte("second"), TRS: 0.6, Group: 1},
		},
		Exhausted: true,
		Version:   9,
		Proof: &proof.Window{Version: 9, Root: root, Groups: []proof.GroupWindow{{
			Group: 1, Count: 4, Root: &root, Start: 1, End: 3,
			Pred: []proof.Boundary{{TRS: 0.8, Sealed: []byte("pred")}},
			Succ: []proof.Boundary{{TRS: 0.5, Sealed: []byte("succ")}, {TRS: 0.4, Sealed: []byte("succ2")}},
			Path: []proof.Node{{Count: 1, Root: root}},
		}}},
	}
	body := server.AppendQueryResponse(nil, []server.QueryResponse{sent})
	decoded, err := server.DecodeQueryResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	kept := retainWindow(decoded[0])
	for i := range body {
		body[i] = 0xAA
	}
	if !reflect.DeepEqual(kept.Elements, sent.Elements) || kept.Exhausted != sent.Exhausted || kept.Version != sent.Version {
		t.Fatalf("retained window follows the body it was decoded from: %+v", kept)
	}
	if !reflect.DeepEqual(kept.Proof, sent.Proof) {
		t.Fatalf("retained proof follows the body it was decoded from: %+v", kept.Proof.Groups[0])
	}
}

// recordingShard passes queries through and keeps what it sent and got
// back.
type recordingShard struct {
	client.Transport
	mu   sync.Mutex
	sent []server.ListQuery
	got  []server.QueryResponse
}

func (r *recordingShard) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	res, err := r.Transport.QueryBatch(ctx, toks, queries)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent = append(r.sent, queries...)
	r.got = append(r.got, res.Responses...)
	return res, err
}

// last is the one sub-query a single-list batch sent and its answer.
func (r *recordingShard) last() (server.ListQuery, server.QueryResponse) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent[len(r.sent)-1], r.got[len(r.got)-1]
}

// TestRouterRetainsFullProofsOnly is the window cache's rule for
// continuations: one is retained without its proof, so it never makes
// a proved sub-query conditional on it, while a retained full proof
// substitutes for a continuation request's answer and verifies in its
// place.
func TestRouterRetainsFullProofsOnly(t *testing.T) {
	srv := server.New([]byte("retain-secret"), time.Hour)
	srv.RegisterUser("u", 0, 1)
	shard := &recordingShard{Transport: client.Local{S: srv}}
	r, err := NewRouter(shard)
	if err != nil {
		t.Fatal(err)
	}
	r.SetCache(cache.New(1 << 20))
	ctx := context.Background()
	toks, err := r.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]server.InsertOp, 40)
	for i := range ops {
		ops[i] = server.InsertOp{List: 3, Element: server.StoredElement{Sealed: []byte{byte(i)}, TRS: float64(i%13) / 13, Group: 0}}
	}
	if err := r.InsertBatch(ctx, toks[0], ops); err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{0: true, 1: true}
	verify := func(prev *proof.Frontier, q server.ListQuery, resp server.QueryResponse) *proof.Frontier {
		t.Helper()
		next, err := proof.VerifyNext(prev, resp.Proof, allowed, q.Offset, q.Count, resp.Elements, resp.Exhausted, resp.Version)
		if err != nil {
			t.Fatalf("window [%d,+%d): %v", q.Offset, q.Count, err)
		}
		return next
	}
	query := func(q server.ListQuery) server.QueryResponse {
		t.Helper()
		res, err := r.QueryBatch(ctx, toks, []server.ListQuery{q})
		if err != nil {
			t.Fatal(err)
		}
		return res.Responses[0]
	}

	first := server.ListQuery{List: 3, Offset: 0, Count: 4, Proof: true}
	f := verify(nil, first, query(first))
	cont := server.ListQuery{List: 3, Offset: 4, Count: 8, Proof: true, ProofFrom: &f.Version}
	resp := query(cont)
	if resp.Proof == nil || !resp.Proof.Continued {
		t.Fatalf("continuation request answered with %+v", resp.Proof)
	}
	verify(f, cont, resp)
	key := r.windowKey(groupsOf(toks), cont)
	kept, ok := r.results.Load().Get(key)
	if !ok || kept.Proof != nil || len(kept.Elements) != len(resp.Elements) {
		t.Fatalf("continuation retained as %+v (found %v), want its window without the proof", kept, ok)
	}

	// The same window asked for from scratch: the entry holds no proof
	// to substitute, so the shard is asked unconditionally and answers
	// with the full proof.
	fresh := server.ListQuery{List: 3, Offset: 4, Count: 8, Proof: true}
	resp = query(fresh)
	if sent, _ := shard.last(); sent.IfVersion != nil {
		t.Fatal("a first-round proved sub-query was made conditional on a retained continuation")
	}
	if resp.Proof == nil || resp.Proof.Continued {
		t.Fatalf("first-round proved sub-query answered with %+v", resp.Proof)
	}
	verify(nil, fresh, resp)

	// That full proof is retained now, so the continuation request goes
	// out conditional, the shard answers Unchanged, and the full proof
	// substitutes for the continuation — and verifies against the first
	// window as well as on its own.
	resp = query(cont)
	if sent, got := shard.last(); sent.IfVersion == nil || !got.Unchanged {
		t.Fatalf("continuation request against a retained full proof: sent %+v, shard answered unchanged=%v", sent, got.Unchanged)
	}
	if resp.Proof == nil || resp.Proof.Continued {
		t.Fatalf("Unchanged answer substituted %+v, want the retained full proof", resp.Proof)
	}
	verify(f, cont, resp)
	verify(nil, fresh, resp)
}
