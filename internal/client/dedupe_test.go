package client

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
)

// Regression: a query repeating a term must score it once. Each
// duplicate used to run its own scan and rank.Accumulate summed the
// same per-term contribution per copy, so "foo foo bar" weighted foo
// double — and paid double the requests.
func TestSearchDeduplicatesTerms(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 44)
	terms := h.c.TermsByDF()
	uniq := []corpus.TermID{terms[0], terms[30]}
	dup := []corpus.TermID{terms[0], terms[0], terms[30], terms[0], terms[30]}
	for _, tc := range []struct {
		name string
		run  func([]corpus.TermID, int) (interface{}, QueryStats, error)
	}{
		{"batched", func(q []corpus.TermID, k int) (interface{}, QueryStats, error) {
			r, st, err := h.cl.Search(context.Background(), q, k)
			return r, st, err
		}},
		// Many rounds: every duplicate would also repeat each follow-up.
		{"b=1", func(q []corpus.TermID, k int) (interface{}, QueryStats, error) {
			r, st, err := h.cl.Search(context.Background(), q, k, WithInitialResponse(1))
			return r, st, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRes, wantStats, err := tc.run(uniq, 10)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, gotStats, err := tc.run(dup, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("duplicate terms changed results:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			if gotStats != wantStats {
				t.Fatalf("duplicate terms changed cost: got %+v, want %+v", gotStats, wantStats)
			}
		})
	}
}

// A single-term query — one list per round-trip, the paper's serial
// request model — must report measured wire bytes over HTTP instead of
// falling back to the codec estimate. In process there is no wire, so
// the estimate remains.
func TestSerialQueryBytesMeasuredOverHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 45)
	term := h.c.TermsByDF()[0]

	_, localStats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if localStats.Elements == 0 {
		t.Fatal("query returned no elements")
	}
	estimate := localStats.Elements * h.cl.Codec().WireSize()
	if localStats.Bytes != estimate {
		t.Fatalf("in-process Bytes = %d, want codec estimate %d", localStats.Bytes, estimate)
	}

	ts := httptest.NewServer(h.srv.Handler())
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	_, httpStats, err := remote.Search(context.Background(), []corpus.TermID{term}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if httpStats.Elements != localStats.Elements {
		t.Fatalf("HTTP returned %d elements, in-process %d", httpStats.Elements, localStats.Elements)
	}
	// Measured bodies include framing, so the real figure is strictly
	// larger than the estimate.
	if httpStats.Bytes <= estimate {
		t.Fatalf("HTTP Bytes = %d, want measured value > codec estimate %d", httpStats.Bytes, estimate)
	}
}
