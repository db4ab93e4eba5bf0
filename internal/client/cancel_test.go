package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// multiRoundQuery picks a term set and k that force the progressive
// protocol through several rounds with b=1.
func multiRoundQuery(h *harness) []corpus.TermID {
	terms := h.c.TermsByDF()
	return []corpus.TermID{terms[3], terms[8]}
}

// TestSearchCancelMidFlightHTTP drives a Search over a real HTTP
// round-trip whose server stalls, cancels the context mid-request and
// requires the call to return context.Canceled promptly — the v3
// guarantee that no slow server can hold a client past its context.
func TestSearchCancelMidFlightHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 31)
	inner := h.srv.Handler()
	arrived := make(chan struct{}, 16)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v2/query") {
			// Drain the body so the server's background read can
			// observe the client hanging up and cancel r.Context().
			io.Copy(io.Discard, r.Body)
			arrived <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-release: // test teardown safety valve
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer close(release)

	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := remote.Search(ctx, multiRoundQuery(h), 5)
		done <- err
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("query never reached the server")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Search returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Search did not return promptly after cancel")
	}
}

// TestSearchDeadlineHTTP is the deadline variant: a context that
// expires while the server stalls surfaces context.DeadlineExceeded.
func TestSearchDeadlineHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 32)
	inner := h.srv.Handler()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v2/query") {
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer close(release)

	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = remote.Search(ctx, multiRoundQuery(h), 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Search returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}

// countingTransport counts batched query round-trips.
type countingTransport struct {
	Transport
	batches atomic.Int64
}

func (c *countingTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	c.batches.Add(1)
	return c.Transport.QueryBatch(ctx, toks, queries)
}

// newCountingClient rebuilds the harness client over a
// round-counting transport.
func newCountingClient(t *testing.T, h *harness) (*Client, *countingTransport) {
	t.Helper()
	ct := &countingTransport{Transport: Local{S: h.srv}}
	cl, err := New(ct, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	return cl, ct
}

// TestSearchStreamEarlyBreakStopsRounds proves that breaking out of a
// SearchStream range stops issuing follow-up round-trips: the
// transport sees exactly one batched query, although the same search
// run to completion needs several.
func TestSearchStreamEarlyBreakStopsRounds(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 33)
	terms := multiRoundQuery(h)
	cl, ct := newCountingClient(t, h)

	if _, _, err := cl.Search(context.Background(), terms, 5, WithInitialResponse(1)); err != nil {
		t.Fatal(err)
	}
	full := ct.batches.Load()
	if full < 2 {
		t.Fatalf("query settled in %d rounds; need a multi-round query to test early exit", full)
	}

	ct.batches.Store(0)
	for snap, err := range cl.SearchStream(context.Background(), terms, 5, WithInitialResponse(1)) {
		if err != nil {
			t.Fatal(err)
		}
		if snap.Final {
			t.Fatal("first snapshot already final; need a multi-round query")
		}
		break
	}
	if got := ct.batches.Load(); got != 1 {
		t.Fatalf("early break issued %d batched rounds, want exactly 1 (full query takes %d)", got, full)
	}
}

// TestSearchStreamMatchesSearch is the acceptance check of the
// streaming surface: a multi-round query yields at least two
// snapshots, cost counters grow monotonically, and the final snapshot
// is element-identical to Search's result.
func TestSearchStreamMatchesSearch(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 34)
	terms := multiRoundQuery(h)

	want, wantStats, err := h.cl.Search(context.Background(), terms, 5, WithInitialResponse(1))
	if err != nil {
		t.Fatal(err)
	}

	var snaps []Snapshot
	for snap, err := range h.cl.SearchStream(context.Background(), terms, 5, WithInitialResponse(1)) {
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) < 2 {
		t.Fatalf("stream yielded %d snapshots, want >= 2 on a multi-round query", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Stats.Elements < snaps[i-1].Stats.Elements || snaps[i].Stats.Rounds <= snaps[i-1].Stats.Rounds {
			t.Fatalf("snapshot %d stats not monotone: %+v -> %+v", i, snaps[i-1].Stats, snaps[i].Stats)
		}
	}
	for i, snap := range snaps {
		if snap.Final != (i == len(snaps)-1) {
			t.Fatalf("snapshot %d Final = %v", i, snap.Final)
		}
	}
	final := snaps[len(snaps)-1]
	if len(final.Results) != len(want) {
		t.Fatalf("final snapshot has %d results, Search returned %d", len(final.Results), len(want))
	}
	for i := range want {
		if final.Results[i] != want[i] {
			t.Fatalf("final snapshot rank %d = %+v, Search returned %+v", i, final.Results[i], want[i])
		}
	}
	if final.Stats != wantStats {
		t.Fatalf("final snapshot stats %+v, Search stats %+v", final.Stats, wantStats)
	}
}

// TestSearchStreamSerialMatchesBatched streams a multi-round query and
// requires its final snapshot to be what searching the terms one after
// another returns, at that serial schedule's request count.
func TestSearchStreamSerialMatchesBatched(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 35)
	terms := multiRoundQuery(h)
	want, sumRequests, maxRequests, _ := serialAnswer(t, h.cl, terms, 5, WithInitialResponse(1))
	var last Snapshot
	n := 0
	for snap, err := range h.cl.SearchStream(context.Background(), terms, 5, WithInitialResponse(1)) {
		if err != nil {
			t.Fatal(err)
		}
		last = snap
		n++
	}
	if n < 2 || !last.Final {
		t.Fatalf("stream yielded %d snapshots (final=%v)", n, last.Final)
	}
	if len(last.Results) != len(want) {
		t.Fatalf("stream final has %d results, serial %d", len(last.Results), len(want))
	}
	for i := range want {
		if last.Results[i] != want[i] {
			t.Fatalf("stream final rank %d = %+v, serial %+v", i, last.Results[i], want[i])
		}
	}
	if last.Stats.Requests != sumRequests || last.Stats.Rounds != maxRequests {
		t.Fatalf("stream requests/rounds %d/%d, want Σ %d / max %d per-term requests",
			last.Stats.Requests, last.Stats.Rounds, sumRequests, maxRequests)
	}
}

// TestSearchBadQuery pins the ErrBadQuery contract: k <= 0 and empty
// or nil term slices fail loudly instead of returning empty results.
func TestSearchBadQuery(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 36)
	term := h.c.TermsByDF()[0]
	cases := []struct {
		name  string
		terms []corpus.TermID
		k     int
	}{
		{"k zero", []corpus.TermID{term}, 0},
		{"k negative", []corpus.TermID{term}, -3},
		{"nil terms", nil, 10},
		{"empty terms", []corpus.TermID{}, 10},
	}
	for _, tc := range cases {
		if _, _, err := h.cl.Search(context.Background(), tc.terms, tc.k); !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: Search err = %v, want ErrBadQuery", tc.name, err)
		}
	}
}

// TestSearchPreCanceledContext verifies the round loop checks the
// context before any round-trip.
func TestSearchPreCanceledContext(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 37)
	cl, ct := newCountingClient(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cl.Search(ctx, multiRoundQuery(h), 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Search err = %v, want context.Canceled", err)
	}
	if got := ct.batches.Load(); got != 0 {
		t.Fatalf("pre-canceled search still issued %d round-trips", got)
	}
}
