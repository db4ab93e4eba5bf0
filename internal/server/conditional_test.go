package server_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/proof"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// oracleWindow is the shadow oracle: an independent filter-scan over
// the fully materialized rank-ordered list (the pre-rework read path),
// the same shape the store's own differential test checks against.
func oracleWindow(t *testing.T, b store.Backend, list zerber.ListID, allowed map[int]bool, offset, count int) ([]store.Element, bool) {
	t.Helper()
	var all []store.Element
	if err := b.View(list, func(elems []store.Element) {
		all = append([]store.Element(nil), elems...)
	}); err != nil {
		t.Fatalf("View(%d): %v", list, err)
	}
	var out []store.Element
	seen := 0
	for _, el := range all {
		if !allowed[el.Group] {
			continue
		}
		if seen >= offset {
			if len(out) >= count {
				return out, false
			}
			out = append(out, el)
		}
		seen++
	}
	return out, true
}

func sameElements(got []server.StoredElement, want []store.Element) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Group != want[i].Group || got[i].TRS != want[i].TRS ||
			string(got[i].Sealed) != string(want[i].Sealed) {
			return false
		}
	}
	return true
}

// TestQueryBatchIfVersion pins the conditional sub-query protocol, one
// row per case: a matching IfVersion yields Unchanged with no elements;
// at a moved version an unproven sub-query is still Unchanged — at the
// new version — when the current read carries the IfTag the caller
// sent, which a write outside the window leaves as it was; anything
// else, a proved sub-query (which carries no tag) included, yields the
// full window at the new version.
func TestQueryBatchIfVersion(t *testing.T) {
	ctx := context.Background()
	below := server.StoredElement{Sealed: []byte("below"), TRS: 0.01, Group: 0}
	cases := []struct {
		name  string
		proof bool
		// write mutates the list after the window was served at ver;
		// nil leaves it at ver.
		write func(t *testing.T, s *server.Server, toks, other []crypt.Token)
		// otherWindow sends the tag of the window after the retained
		// one, which holds as many elements; noTag sends none.
		otherWindow, noTag bool
		unchanged          bool
	}{
		{name: "same version", unchanged: true},
		{name: "write in a group the caller cannot see", unchanged: true,
			write: func(t *testing.T, s *server.Server, _, other []crypt.Token) {
				insert(t, s, other[0], server.StoredElement{Sealed: []byte("foreign"), TRS: 0.99, Group: 2})
			}},
		{name: "insert below the window", unchanged: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		{name: "remove below the window", unchanged: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) {
				if err := client.RemoveOne(ctx, s.RemoveBatch, toks[0], 1, []byte("e00")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "write inside the window",
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) {
				insert(t, s, toks[1], server.StoredElement{Sealed: []byte("fresh"), TRS: 0.99, Group: 1})
			}},
		{name: "proved at a moved version", proof: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		{name: "tag of a different window of equal length", otherWindow: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		{name: "no tag", noTag: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := store.NewMemory()
			s := server.NewWithBackend([]byte("if-version-secret"), time.Hour, backend)
			reg := obs.NewRegistry()
			s.SetObs(reg)
			s.RegisterUser("u", 0, 1)
			s.RegisterUser("other", 2)
			toks, err := s.Login(ctx, "u")
			if err != nil {
				t.Fatal(err)
			}
			other, err := s.Login(ctx, "other")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				insert(t, s, toks[i%2], server.StoredElement{Sealed: []byte(fmt.Sprintf("e%02d", i)), TRS: float64(i) / 20, Group: i % 2})
			}
			q := server.ListQuery{List: 1, Offset: 0, Count: 5, Proof: tc.proof}
			base, err := s.QueryBatch(ctx, toks, []server.ListQuery{q, {List: 1, Offset: 5, Count: 5}})
			if err != nil {
				t.Fatal(err)
			}
			ver := base[0].Version
			if ver == 0 || base[0].Unchanged || len(base[0].Elements) != 5 || len(base[1].Elements) != 5 {
				t.Fatalf("unconditional responses: %+v", base)
			}
			want := ver
			if tc.write != nil {
				tc.write(t, s, toks, other)
				want = ver + 1
			}

			q.IfVersion = &ver
			if !tc.proof && !tc.noTag {
				sent := base[0]
				if tc.otherWindow {
					sent = base[1]
				}
				tag := server.TagOf(sent.Elements, sent.Exhausted)
				q.IfTag = &tag
			}
			got, err := s.QueryBatch(ctx, toks, []server.ListQuery{q})
			if err != nil {
				t.Fatal(err)
			}
			resp := got[0]
			if resp.Unchanged != tc.unchanged || resp.Version != want {
				t.Fatalf("unchanged=%v version=%d, want unchanged=%v version=%d", resp.Unchanged, resp.Version, tc.unchanged, want)
			}
			wantRevalidated := uint64(0)
			if tc.unchanged && want != ver {
				wantRevalidated = 1
			}
			if n := reg.Counter(server.MetricQueryRevalidated, "").Value(); n != wantRevalidated {
				t.Fatalf("%s = %d, want %d", server.MetricQueryRevalidated, n, wantRevalidated)
			}
			if resp.Unchanged {
				if resp.Elements != nil || resp.Proof != nil {
					t.Fatalf("Unchanged answer carries a window: %+v", resp)
				}
				// The window the caller retained is the current one.
				cur, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 5}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cur[0].Elements, base[0].Elements) || cur[0].Exhausted != base[0].Exhausted {
					t.Fatalf("Unchanged, but the current window differs from the retained one")
				}
				return
			}
			want5, wantExh := oracleWindow(t, backend, 1, map[int]bool{0: true, 1: true}, 0, 5)
			if !sameElements(resp.Elements, want5) || resp.Exhausted != wantExh {
				t.Fatalf("full window %d elements (exhausted=%v), oracle %d (exhausted=%v)", len(resp.Elements), resp.Exhausted, len(want5), wantExh)
			}
			if tc.proof != (resp.Proof != nil) {
				t.Fatalf("proof present = %v on a proof=%v sub-query", resp.Proof != nil, tc.proof)
			}
			if tc.proof {
				verifyAgainstRoot(t, backend, resp, map[int]bool{0: true, 1: true}, 0, 5)
			}
		})
	}
}

// TestQueryBatchRefusesMisplacedTags: a tag names the window retained
// at IfVersion, and a proved sub-query stays version-equal only, so a
// tag without a version and a tag on a proved sub-query are bad
// requests, refused before anything runs with the sub-query's index.
func TestQueryBatchRefusesMisplacedTags(t *testing.T) {
	ctx := context.Background()
	s := server.New([]byte("tag-grammar-secret"), time.Hour)
	s.RegisterUser("u", 0)
	toks, err := s.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	insert(t, s, toks[0], server.StoredElement{Sealed: []byte("x"), TRS: 0.5, Group: 0})
	ver := uint64(1)
	var tag server.WindowTag
	for name, q := range map[string]server.ListQuery{
		"without a version": {List: 1, Count: 5, IfTag: &tag},
		"on a proved read":  {List: 1, Count: 5, IfVersion: &ver, IfTag: &tag, Proof: true},
	} {
		_, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Count: 1}, q})
		var be *server.BatchError
		if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, server.ErrBadRequest) {
			t.Errorf("tag %s: %v, want a bad request at index 1", name, err)
		}
	}
}

func insert(t *testing.T, s *server.Server, tok crypt.Token, el server.StoredElement) {
	t.Helper()
	if err := client.InsertOne(context.Background(), s.InsertBatch, tok, 1, el); err != nil {
		t.Fatal(err)
	}
}

// verifyAgainstRoot checks a proved window against the list's
// published commitment at the version it was served at.
func verifyAgainstRoot(t *testing.T, b store.Backend, resp server.QueryResponse, allowed map[int]bool, offset, count int) {
	t.Helper()
	elems := make([]proof.WindowElement, len(resp.Elements))
	for i, el := range resp.Elements {
		elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	if err := proof.VerifyWindow(resp.Proof, allowed, offset, count, elems, resp.Exhausted, resp.Version); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	cm, err := b.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Version != resp.Version || cm.Root != resp.Proof.Root {
		t.Fatalf("proof at version %d root %s, list committed at version %d root %s", resp.Version, resp.Proof.Root, cm.Version, cm.Root)
	}
}
