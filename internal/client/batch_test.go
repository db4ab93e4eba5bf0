package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/rank"
	"zerberr/internal/server"
)

// multiTermQueries picks term sets of mixed selectivity from the
// harness corpus.
func multiTermQueries(h *harness) [][]corpus.TermID {
	terms := h.c.TermsByDF()
	return [][]corpus.TermID{
		{terms[0], terms[10]},
		{terms[1], terms[50], terms[200]},
		{terms[5], terms[100], terms[len(terms)/2], terms[len(terms)/3]},
		{terms[2]},
	}
}

// serialAnswer answers q the way a schedule sending one list per
// round-trip would: each term searched on its own, in turn, and the
// per-term top-k summed per document (Section 3.2). It returns that
// answer with the per-term costs: Σ Requests (that schedule's
// round-trips), the deepest term's Requests and Σ Elements.
func serialAnswer(t *testing.T, cl *Client, q []corpus.TermID, k int, opts ...SearchOption) (res []rank.Result, sumRequests, maxRequests, elements int) {
	t.Helper()
	acc := make(map[corpus.DocID]float64)
	for _, term := range q {
		r, st, err := cl.Search(context.Background(), []corpus.TermID{term}, k, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rank.Accumulate(acc, r)
		sumRequests += st.Requests
		maxRequests = max(maxRequests, st.Requests)
		elements += st.Elements
	}
	return rank.TopK(acc, k), sumRequests, maxRequests, elements
}

// TestSearchBatchedMatchesSerial is the acceptance check of batching:
// a T-term Search completes in max(per-term rounds) batched
// round-trips, counts Σ per-term requests (the round-trips of a serial
// schedule) in Requests, and returns exactly what searching its terms
// one after another returns.
func TestSearchBatchedMatchesSerial(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 30)
	for qi, q := range multiTermQueries(h) {
		serialRes, sumRequests, maxRounds, serialElements := serialAnswer(t, h.cl, q, 10)
		batchedRes, batchedStats, err := h.cl.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}

		if len(serialRes) != len(batchedRes) {
			t.Fatalf("query %d: serial %d results, batched %d", qi, len(serialRes), len(batchedRes))
		}
		for i := range serialRes {
			if serialRes[i] != batchedRes[i] {
				t.Fatalf("query %d rank %d: serial %+v, batched %+v", qi, i, serialRes[i], batchedRes[i])
			}
		}
		if batchedStats.Rounds != maxRounds {
			t.Errorf("query %d: batched rounds %d, want max per-term rounds %d", qi, batchedStats.Rounds, maxRounds)
		}
		if batchedStats.Requests != sumRequests {
			t.Errorf("query %d: batched list requests %d, want %d", qi, batchedStats.Requests, sumRequests)
		}
		if len(q) > 1 && batchedStats.Rounds >= batchedStats.Requests {
			t.Errorf("query %d: %d-term query took %d rounds for %d requests — batching saved nothing",
				qi, len(q), batchedStats.Rounds, batchedStats.Requests)
		}
		if batchedStats.Elements != serialElements {
			t.Errorf("query %d: batched elements %d, serial %d", qi, batchedStats.Elements, serialElements)
		}
	}
}

// TestSearchBatchedOverHTTP runs the same comparison through the HTTP
// endpoints and checks the measured byte accounting.
func TestSearchBatchedOverHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 31)
	ts := newTestHTTP(t, h)
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	for qi, q := range multiTermQueries(h) {
		localRes, localStats, err := h.cl.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		remoteRes, remoteStats, err := remote.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(localRes) != len(remoteRes) {
			t.Fatalf("query %d: local %d results, remote %d", qi, len(localRes), len(remoteRes))
		}
		for i := range localRes {
			if localRes[i] != remoteRes[i] {
				t.Fatalf("query %d rank %d: local %+v, remote %+v", qi, i, localRes[i], remoteRes[i])
			}
		}
		if remoteStats.Rounds != localStats.Rounds || remoteStats.Requests != localStats.Requests {
			t.Errorf("query %d: remote rounds/requests %d/%d, local %d/%d",
				qi, remoteStats.Rounds, remoteStats.Requests, localStats.Rounds, localStats.Requests)
		}
		// In process Bytes falls back to the codec estimate; over HTTP
		// it is the measured JSON body size, which includes framing
		// and base64 expansion and therefore exceeds the estimate.
		estimate := localStats.Elements * h.cl.Codec().WireSize()
		if localStats.Bytes != estimate {
			t.Errorf("query %d: in-process bytes %d, want estimate %d", qi, localStats.Bytes, estimate)
		}
		if remoteStats.Bytes <= estimate {
			t.Errorf("query %d: measured wire bytes %d not above estimate %d", qi, remoteStats.Bytes, estimate)
		}
	}
}

// TestExpiredTokenMapsThroughHTTP proves the structured error envelope
// round-trips error identity on every endpoint, login included: an
// unknown user and an expired token surface as the same sentinels
// remotely as in process.
func TestExpiredTokenMapsThroughHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 32)
	ts := newTestHTTP(t, h)
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]Transport{"remote": HTTP{BaseURL: ts.URL}, "local": Local{S: h.srv}} {
		if _, err := tr.Login(context.Background(), "ghost"); !errors.Is(err, server.ErrUnknownUser) {
			t.Errorf("%s unknown-user login err = %v, want ErrUnknownUser", name, err)
		}
	}
	h.srv.SetClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	defer h.srv.SetClock(time.Now)

	term := h.c.TermsByDF()[0]
	_, _, remoteErr := remote.Search(context.Background(), []corpus.TermID{term}, 10)
	_, _, localErr := h.cl.Search(context.Background(), []corpus.TermID{term}, 10)
	for name, err := range map[string]error{"remote": remoteErr, "local": localErr} {
		if !errors.Is(err, server.ErrAuth) {
			t.Errorf("%s expired-token err = %v, want ErrAuth", name, err)
		}
		if !errors.Is(err, server.ErrTokenExpired) {
			t.Errorf("%s expired-token err = %v, want ErrTokenExpired", name, err)
		}
	}
}

// TestBatchErrorIndexThroughHTTP proves a batch rejection keeps its
// op index and sentinel across the wire.
func TestBatchErrorIndexThroughHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 33)
	ts := newTestHTTP(t, h)
	defer ts.Close()
	toks, err := h.srv.Login(context.Background(), "writer")
	if err != nil {
		t.Fatal(err)
	}
	tr := HTTP{BaseURL: ts.URL}
	before := h.srv.NumElements()
	err = tr.InsertBatch(context.Background(), toks[0], []server.InsertOp{
		{List: 1, Element: server.StoredElement{Sealed: []byte{1}, TRS: 0.5, Group: toks[0].Group}},
		{List: 1, Element: server.StoredElement{Sealed: []byte{2}, TRS: 0.5, Group: 4242}},
	})
	if !errors.Is(err, server.ErrForbidden) {
		t.Fatalf("cross-group batched insert err = %v, want ErrForbidden", err)
	}
	var be *server.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("batch error index not preserved over HTTP: %v", err)
	}
	if h.srv.NumElements() != before {
		t.Fatal("rejected batch was partially applied")
	}
}
