package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/zerber"
)

var secret = []byte("test-secret")

func newServer() *Server {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0, 1)
	s.RegisterUser("alice", 1)
	return s
}

func el(trs float64, group int, payload string) StoredElement {
	return StoredElement{Sealed: []byte(payload), TRS: trs, Group: group}
}

// insertOne, queryOne and removeOne run a single-list call as a batch
// of one, reporting the operation's own error — what
// client.InsertOne, QueryOne and RemoveOne do over a transport, for
// tests that cannot import the client.
func insertOne(ctx context.Context, s *Server, tok crypt.Token, list zerber.ListID, el StoredElement) error {
	return OneOp(s.InsertBatch(ctx, tok, []InsertOp{{List: list, Element: el}}))
}

func queryOne(ctx context.Context, s *Server, toks []crypt.Token, list zerber.ListID, offset, count int) (QueryResponse, error) {
	resps, err := s.QueryBatch(ctx, toks, []ListQuery{{List: list, Offset: offset, Count: count}})
	if err != nil {
		return QueryResponse{}, OneOp(err)
	}
	return resps[0], nil
}

func removeOne(ctx context.Context, s *Server, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return OneOp(s.RemoveBatch(ctx, tok, []RemoveOp{{List: list, Sealed: sealed}}))
}

func mustLogin(t *testing.T, s *Server, user string) []crypt.Token {
	t.Helper()
	toks, err := s.Login(context.Background(), user)
	if err != nil {
		t.Fatalf("login %s: %v", user, err)
	}
	return toks
}

func TestLoginIssuesGroupTokens(t *testing.T) {
	s := newServer()
	toks := mustLogin(t, s, "john")
	if len(toks) != 2 {
		t.Fatalf("john got %d tokens, want 2", len(toks))
	}
	if toks[0].Group != 0 || toks[1].Group != 1 {
		t.Fatalf("tokens for groups %d,%d", toks[0].Group, toks[1].Group)
	}
	if _, err := s.Login(context.Background(), "nobody"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user err = %v", err)
	}
}

func TestInsertRequiresMatchingGroupToken(t *testing.T) {
	s := newServer()
	alice := mustLogin(t, s, "alice") // group 1 only
	if err := insertOne(context.Background(), s, alice[0], 7, el(0.5, 1, "x")); err != nil {
		t.Fatalf("legit insert failed: %v", err)
	}
	if err := insertOne(context.Background(), s, alice[0], 7, el(0.5, 0, "y")); !errors.Is(err, ErrForbidden) {
		t.Fatalf("cross-group insert err = %v, want ErrForbidden", err)
	}
	forged := alice[0]
	forged.Group = 0
	if err := insertOne(context.Background(), s, forged, 7, el(0.5, 0, "z")); !errors.Is(err, ErrAuth) {
		t.Fatalf("forged token err = %v, want ErrAuth", err)
	}
	if err := insertOne(context.Background(), s, alice[0], 7, StoredElement{TRS: 1, Group: 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty payload err = %v, want ErrBadRequest", err)
	}
}

func TestQuerySortedByTRS(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	for i, trs := range []float64{0.2, 0.9, 0.5, 0.7, 0.1} {
		if err := insertOne(context.Background(), s, john[0], 1, el(trs, 0, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := queryOne(context.Background(), s, john, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Exhausted {
		t.Fatal("expected exhausted response")
	}
	want := []float64{0.9, 0.7, 0.5, 0.2, 0.1}
	if len(resp.Elements) != len(want) {
		t.Fatalf("got %d elements", len(resp.Elements))
	}
	for i, e := range resp.Elements {
		if e.TRS != want[i] {
			t.Fatalf("rank %d TRS %v, want %v", i, e.TRS, want[i])
		}
	}
}

func TestQueryPagination(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	for i := 0; i < 10; i++ {
		if err := insertOne(context.Background(), s, john[0], 1, el(float64(i)/10, 0, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	// First batch of 3: not exhausted.
	r1, err := queryOne(context.Background(), s, john, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Elements) != 3 || r1.Exhausted {
		t.Fatalf("batch1: %d elements exhausted=%v", len(r1.Elements), r1.Exhausted)
	}
	// Follow-up (doubling): offset 3, count 6 -> 6 elements, one left.
	r2, err := queryOne(context.Background(), s, john, 1, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Elements) != 6 || r2.Exhausted {
		t.Fatalf("batch2: %d elements exhausted=%v", len(r2.Elements), r2.Exhausted)
	}
	// Final element.
	r3, err := queryOne(context.Background(), s, john, 1, 9, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Elements) != 1 || !r3.Exhausted {
		t.Fatalf("batch3: %d elements exhausted=%v", len(r3.Elements), r3.Exhausted)
	}
	// Exact-boundary fetch is exhausted too.
	r4, err := queryOne(context.Background(), s, john, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Exhausted {
		t.Fatal("exact-length fetch should be exhausted")
	}
	// Ranks must be consistent across batches.
	prev := 1.1
	for _, batch := range [][]StoredElement{r1.Elements, r2.Elements, r3.Elements} {
		for _, e := range batch {
			if e.TRS > prev {
				t.Fatal("pagination broke rank order")
			}
			prev = e.TRS
		}
	}
}

func TestQueryACLFiltering(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")   // groups 0,1
	alice := mustLogin(t, s, "alice") // group 1
	s.RegisterUser("bob", 2)
	bob := mustLogin(t, s, "bob")
	if err := insertOne(context.Background(), s, john[0], 5, el(0.9, 0, "g0-high")); err != nil {
		t.Fatal(err)
	}
	if err := insertOne(context.Background(), s, john[1], 5, el(0.5, 1, "g1-mid")); err != nil {
		t.Fatal(err)
	}
	// Alice sees only group 1.
	resp, err := queryOne(context.Background(), s, alice, 5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Elements) != 1 || resp.Elements[0].Group != 1 {
		t.Fatalf("alice sees %v", resp.Elements)
	}
	// John sees both, ranked.
	respJ, err := queryOne(context.Background(), s, john, 5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(respJ.Elements) != 2 || respJ.Elements[0].TRS != 0.9 {
		t.Fatalf("john sees %v", respJ.Elements)
	}
	// Bob (group 2) sees nothing but the list exists.
	respB, err := queryOne(context.Background(), s, bob, 5, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(respB.Elements) != 0 || !respB.Exhausted {
		t.Fatalf("bob sees %v", respB.Elements)
	}
}

func TestQueryRejections(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	if _, err := queryOne(context.Background(), s, john, 99, 0, 10); !errors.Is(err, ErrUnknownList) {
		t.Fatalf("unknown list err = %v", err)
	}
	if err := insertOne(context.Background(), s, john[0], 1, el(0.5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := queryOne(context.Background(), s, john, 1, -1, 10); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("negative offset err = %v", err)
	}
	if _, err := queryOne(context.Background(), s, john, 1, 0, 0); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("zero count err = %v", err)
	}
	// No tokens: unauthenticated, not an empty view of an existing list
	// (TestQueryBatchWithoutTokens).
	if _, err := queryOne(context.Background(), s, nil, 1, 0, 10); !errors.Is(err, ErrAuth) {
		t.Fatalf("tokenless query err = %v, want ErrAuth", err)
	}
}

func TestExpiredTokenRejected(t *testing.T) {
	s := New(secret, time.Minute)
	s.RegisterUser("john", 0)
	base := time.Date(2026, 6, 10, 12, 0, 0, 0, time.UTC)
	s.SetClock(func() time.Time { return base })
	john := mustLogin(t, s, "john")
	if err := insertOne(context.Background(), s, john[0], 1, el(0.5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	s.SetClock(func() time.Time { return base.Add(2 * time.Minute) })
	if _, err := queryOne(context.Background(), s, john, 1, 0, 10); !errors.Is(err, ErrAuth) {
		t.Fatalf("expired token err = %v, want ErrAuth", err)
	}
}

func TestTieBreakBySealedBytes(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	for _, payload := range []string{"bbb", "aaa", "ccc"} {
		if err := insertOne(context.Background(), s, john[0], 1, el(0.5, 0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := queryOne(context.Background(), s, john, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := []string{string(resp.Elements[0].Sealed), string(resp.Elements[1].Sealed), string(resp.Elements[2].Sealed)}
	if got[0] != "aaa" || got[1] != "bbb" || got[2] != "ccc" {
		t.Fatalf("tie order %v", got)
	}
}

func TestStatsAndSnapshot(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	if err := insertOne(context.Background(), s, john[0], 1, el(0.5, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := insertOne(context.Background(), s, john[0], 2, el(0.6, 0, "y")); err != nil {
		t.Fatal(err)
	}
	if s.NumLists() != 2 || s.NumElements() != 2 || s.ListLen(1) != 1 {
		t.Fatalf("stats: lists=%d elements=%d len1=%d", s.NumLists(), s.NumElements(), s.ListLen(1))
	}
	snap, err := s.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 || string(snap[0].Sealed) != "x" {
		t.Fatalf("snapshot = %v", snap)
	}
	// Snapshot must be a copy.
	snap[0].Sealed[0] = 'z'
	snap2, err := s.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap2[0].Sealed) != "x" {
		t.Fatal("snapshot aliased server memory")
	}
	if _, err := s.Snapshot(99); !errors.Is(err, ErrUnknownList) {
		t.Fatalf("snapshot of unknown list: err = %v, want ErrUnknownList", err)
	}
	lists := s.Lists()
	if len(lists) != 2 || lists[0] != 1 || lists[1] != 2 {
		t.Fatalf("Lists = %v", lists)
	}
}

// Query responses alias the store's sealed payloads (the read path no
// longer copies every payload per round); the contract is that the
// store never rewrites payload bytes in place, so a held response
// stays intact across later inserts and removals.
func TestQueryResponseStableAcrossMutations(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	if err := insertOne(context.Background(), s, john[0], 1, el(0.5, 0, "orig")); err != nil {
		t.Fatal(err)
	}
	resp, err := queryOne(context.Background(), s, john, 1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := insertOne(context.Background(), s, john[0], 1, el(float64(i)/64, 0, fmt.Sprintf("later-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := removeOne(context.Background(), s, john[0], 1, []byte("later-0")); err != nil {
		t.Fatal(err)
	}
	if string(resp.Elements[0].Sealed) != "orig" {
		t.Fatalf("held response corrupted by later mutations: %q", resp.Elements[0].Sealed)
	}
}

var _ = zerber.ListID(0)

func TestConcurrentInsertQuery(t *testing.T) {
	s := newServer()
	john := mustLogin(t, s, "john")
	done := make(chan error, 8)
	// Four writers and four readers hammer the same lists.
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				el := StoredElement{
					Sealed: []byte{byte(w), byte(i), byte(i >> 8), 1},
					TRS:    float64(i%100) / 100,
					Group:  0,
				}
				if err := insertOne(context.Background(), s, john[0], zerber.ListID(i%3), el); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := queryOne(context.Background(), s, john, zerber.ListID(i%3), 0, 10); err != nil &&
					!errors.Is(err, ErrUnknownList) {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All inserts landed and every list is served in sorted order.
	if got := s.NumElements(); got != 4*200 {
		t.Fatalf("lost inserts: %d elements, want 800", got)
	}
	for _, list := range s.Lists() {
		resp, err := queryOne(context.Background(), s, john, list, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(resp.Elements); i++ {
			if resp.Elements[i].TRS > resp.Elements[i-1].TRS {
				t.Fatalf("list %d unsorted after concurrent load", list)
			}
		}
	}
}
