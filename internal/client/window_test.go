package client

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// roundRecorder keeps the sub-queries and the request frame of every
// round it carries.
type roundRecorder struct {
	Transport
	rounds [][]server.ListQuery
	frames [][]byte
}

func (r *roundRecorder) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	r.rounds = append(r.rounds, append([]server.ListQuery(nil), queries...))
	r.frames = append(r.frames, server.AppendQueryRequest(nil, toks, queries))
	return r.Transport.QueryBatch(ctx, toks, queries)
}

// TestFirstWindowIsAFunctionOfTheList: the first sub-query of a search
// is sized from its merged list alone, so every term of a list — and a
// term the plan never saw, hashed onto that list — sends byte-identical
// first requests. A window sized per term would tell the server which
// of the list's terms is read.
func TestFirstWindowIsAFunctionOfTheList(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 1)
	rec := &roundRecorder{Transport: Local{S: h.srv}}
	cl, err := New(rec, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	firstFrame := func(term corpus.TermID, k int) []byte {
		t.Helper()
		rec.frames = nil
		if _, _, err := cl.Search(context.Background(), []corpus.TermID{term}, k); err != nil {
			t.Fatal(err)
		}
		return rec.frames[0]
	}
	// Unplanned terms, each hashed onto some list.
	unplanned := make(map[zerber.ListID]corpus.TermID)
	for term := corpus.TermID(1 << 24); len(unplanned) < h.plan.NumLists() && term < 1<<24+1<<16; term++ {
		if _, planned := h.plan.ListOf(term); planned {
			t.Fatalf("term %d is in the plan", term)
		}
		if l := cl.ListFor(term); unplanned[l] == 0 {
			unplanned[l] = term
		}
	}
	merged, derived := 0, 0
	for l := range h.plan.NumLists() {
		list := zerber.ListID(l)
		terms := h.plan.Terms(list)
		u, ok := unplanned[list]
		if len(terms) < 2 || !ok {
			continue
		}
		merged++
		for _, k := range []int{1, 10, 50} {
			if cl.FirstWindow(list, k) > cl.cfg.InitialResponse {
				derived++
			}
			want := firstFrame(terms[0], k)
			for _, term := range append(terms[1:], u) {
				if got := firstFrame(term, k); !bytes.Equal(got, want) {
					t.Fatalf("list %d, k=%d: term %d's first request differs from term %d's", l, k, term, terms[0])
				}
			}
		}
	}
	if merged == 0 || derived == 0 {
		t.Fatalf("%d merged lists checked, %d windows above the floor: the test saw nothing", merged, derived)
	}
}

// TestFirstWindowFromThePlan: a derived first window is half the
// expected depth of the k-th element of the list's most frequent term,
// never below the floor; WithInitialResponse pins it; and it is the
// count a search's first sub-query asks for.
func TestFirstWindowFromThePlan(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 2)
	rec := &roundRecorder{Transport: Local{S: h.srv}}
	const floor = 4
	cl, err := New(rec, Config{Plan: h.plan, Store: h.store, Keys: h.keys, InitialResponse: floor})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	above, at := 0, 0
	for l := range h.plan.NumLists() {
		list := zerber.ListID(l)
		top := 0.0
		for _, term := range h.plan.Terms(list) {
			top = math.Max(top, h.plan.P(term))
		}
		dilution := h.plan.ListMass(list) / top
		for _, k := range []int{1, 10, 200} {
			want := max(floor, int(math.Ceil(float64(k)*dilution/2)))
			got := cl.FirstWindow(list, k)
			if got != want {
				t.Fatalf("list %d, k=%d: first window %d, want %d", l, k, got, want)
			}
			if got > floor {
				above++
			} else {
				at++
			}
			if pinned := cl.FirstWindow(list, k, WithInitialResponse(7)); pinned != 7 {
				t.Fatalf("list %d, k=%d: pinned first window %d, want 7", l, k, pinned)
			}
		}
	}
	if above == 0 || at == 0 {
		t.Fatalf("%d windows above the floor, %d at it: both cases must occur", above, at)
	}
	term := h.c.TermsByDF()[0]
	for _, opts := range [][]SearchOption{nil, {WithInitialResponse(3)}} {
		rec.rounds = nil
		if _, _, err := cl.Search(context.Background(), []corpus.TermID{term}, 10, opts...); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.rounds[0][0].Count, cl.FirstWindow(cl.ListFor(term), 10, opts...); got != want {
			t.Fatalf("first sub-query asks for %d, FirstWindow says %d", got, want)
		}
	}
}

// TestFirstWindowTableIsReadOnly: New builds the per-list table and
// nothing writes it after, so clients built from one plan and a client
// sized concurrently stay race-free (run under -race).
func TestFirstWindowTableIsReadOnly(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 3)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own, err := New(Local{S: h.srv}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
			if err != nil {
				t.Error(err)
				return
			}
			for l := range h.plan.NumLists() {
				list := zerber.ListID(l)
				if a, b := own.FirstWindow(list, 10+g), h.cl.FirstWindow(list, 10+g); a != b {
					t.Errorf("list %d: two clients of one plan size it %d and %d", l, a, b)
					return
				}
			}
		}()
	}
	wg.Wait()
}
