package client

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

func TestDeleteDocumentRemovesAllElements(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 20)
	victim := h.c.Docs[3]
	want := len(victim.TF)
	before := h.srv.NumElements()
	removed, err := h.cl.DeleteDocument(context.Background(), victim, victim.Group)
	if err != nil {
		t.Fatal(err)
	}
	if removed != want {
		t.Fatalf("removed %d elements, document has %d terms", removed, want)
	}
	if got := h.srv.NumElements(); got != before-want {
		t.Fatalf("server holds %d elements, want %d", got, before-want)
	}
	// The document must no longer be retrievable under any of its
	// terms, and the rest of the ranking must be intact.
	for term := range victim.TF {
		res, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, h.c.NumDocs(), WithInitialResponse(50))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Doc == victim.ID {
				t.Fatalf("deleted doc still returned for term %d", term)
			}
		}
		if len(res) != h.c.DF(term)-1 {
			t.Fatalf("term %d: %d results after delete, want %d", term, len(res), h.c.DF(term)-1)
		}
	}
}

func TestDeleteThenReindex(t *testing.T) {
	// The Section 7 update story: delete old elements, insert the new
	// version, query reflects the change.
	h := newHarness(t, crypt.GCMCodec{}, 21)
	victim := h.c.Docs[5]
	if _, err := h.cl.DeleteDocument(context.Background(), victim, victim.Group); err != nil {
		t.Fatal(err)
	}
	// New version: one term boosted heavily.
	var someTerm corpus.TermID
	for term := range victim.TF {
		someTerm = term
		break
	}
	updated := &corpus.Document{
		ID:     victim.ID,
		Group:  victim.Group,
		Length: 10,
		TF:     map[corpus.TermID]int{someTerm: 10},
	}
	if err := h.cl.IndexDocument(context.Background(), updated, updated.Group); err != nil {
		t.Fatal(err)
	}
	res, _, err := h.cl.Search(context.Background(), []corpus.TermID{someTerm}, 1, WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Doc != victim.ID || res[0].Score != 1.0 {
		t.Fatalf("updated doc not at rank 1 with score 1.0: %+v", res)
	}
}

func TestDeleteRequiresAuthAndKeys(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 22)
	d := h.c.Docs[0]
	fresh, err := New(Local{S: h.srv}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.DeleteDocument(context.Background(), d, d.Group); !errors.Is(err, ErrNotLoggedIn) {
		t.Fatalf("unauthenticated delete err = %v", err)
	}
	if err := fresh.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.DeleteDocument(context.Background(), d, 99); !errors.Is(err, ErrNoGroupKey) {
		t.Fatalf("keyless delete err = %v", err)
	}
}

func TestServerRemoveACL(t *testing.T) {
	srv := server.New([]byte("s"), 0)
	srv.RegisterUser("a", 0)
	srv.RegisterUser("b", 1)
	aTok, err := srv.Login(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	bTok, err := srv.Login(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	el := server.StoredElement{Sealed: []byte("payload"), TRS: 0.5, Group: 0}
	if err := InsertOne(context.Background(), srv.InsertBatch, aTok[0], 1, el); err != nil {
		t.Fatal(err)
	}
	// b cannot remove a's element.
	if err := RemoveOne(context.Background(), srv.RemoveBatch, bTok[0], 1, []byte("payload")); !errors.Is(err, server.ErrForbidden) {
		t.Fatalf("cross-group remove err = %v", err)
	}
	// Unknown payload.
	if err := RemoveOne(context.Background(), srv.RemoveBatch, aTok[0], 1, []byte("nope")); !errors.Is(err, server.ErrNotFound) {
		t.Fatalf("unknown payload err = %v", err)
	}
	// Unknown list.
	if err := RemoveOne(context.Background(), srv.RemoveBatch, aTok[0], 9, []byte("payload")); !errors.Is(err, server.ErrUnknownList) {
		t.Fatalf("unknown list err = %v", err)
	}
	// Legit removal works and empties the list.
	if err := RemoveOne(context.Background(), srv.RemoveBatch, aTok[0], 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if srv.ListLen(1) != 0 {
		t.Fatal("element not removed")
	}
}

func TestDeleteOverHTTP(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 23)
	tsrv := newTestHTTP(t, h)
	defer tsrv.Close()
	remote, err := New(HTTP{BaseURL: tsrv.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	victim := h.c.Docs[7]
	removed, err := remote.DeleteDocument(context.Background(), victim, victim.Group)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(victim.TF) {
		t.Fatalf("HTTP delete removed %d, want %d", removed, len(victim.TF))
	}
}

// newTestHTTP starts an httptest server over the harness's index
// server.
func newTestHTTP(t *testing.T, h *harness) *httptest.Server {
	t.Helper()
	return httptest.NewServer(h.srv.Handler())
}

// deleteVictims is what a delete scan that opens every element names
// for removal: each element of the document's group, on one of its
// terms' lists, that opens as the document under a term of that list.
func deleteVictims(t *testing.T, h *harness, codec crypt.ElementCodec, d *corpus.Document) []string {
	t.Helper()
	lists := map[zerber.ListID]bool{}
	for term := range d.TF {
		lists[h.cl.ListFor(term)] = true
	}
	var out []string
	for list := range lists {
		snap, err := h.srv.Snapshot(list)
		if err != nil {
			t.Fatal(err)
		}
		for _, el := range snap {
			if el.Group != d.Group {
				continue
			}
			plain, err := codec.Open(el.Sealed, h.keys[el.Group])
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := d.TF[plain.Term]; ok && plain.Doc == d.ID && h.cl.ListFor(plain.Term) == list {
				out = append(out, fmt.Sprint(list, el.Sealed))
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestDeleteVictimsMatchFullOpen: peeking before opening names exactly
// the elements a scan that opens every element would, for sixty
// documents of a seeded corpus and both codecs.
func TestDeleteVictimsMatchFullOpen(t *testing.T) {
	for _, codec := range []crypt.ElementCodec{crypt.GCMCodec{}, crypt.Compact64Codec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			h := newHarness(t, codec, 24)
			tt := &flipTransport{Local: Local{S: h.srv}}
			cl, err := New(tt, h.cl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Login(context.Background(), "writer"); err != nil {
				t.Fatal(err)
			}
			for _, d := range h.c.Docs[:60] {
				tt.removed = nil
				n, err := cl.DeleteDocument(context.Background(), d, d.Group)
				if err != nil {
					t.Fatalf("doc %d: %v", d.ID, err)
				}
				var got []string
				for _, op := range tt.removed {
					got = append(got, fmt.Sprint(op.List, op.Sealed))
				}
				slices.Sort(got)
				if want := deleteVictims(t, h, codec, d); n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("doc %d: removed %d elements %v, a full-open scan names %v", d.ID, n, got, want)
				}
			}
		})
	}
}

// TestDeleteSkipsTamperedElementsOfOtherDocuments: an element that
// peeks as another document is never opened, so its broken tag does
// not abort the delete; one that peeks as the document is opened and
// fails.
func TestDeleteSkipsTamperedElementsOfOtherDocuments(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 25)
	victim := h.c.Docs[4]
	// One of the victim's elements, and an element of another document
	// of its group on the same list.
	var own, other []byte
	for _, term := range slices.Sorted(maps.Keys(victim.TF)) {
		snap, err := h.srv.Snapshot(h.cl.ListFor(term))
		if err != nil {
			t.Fatal(err)
		}
		own, other = nil, nil
		for _, el := range snap {
			if el.Group != victim.Group {
				continue
			}
			plain, err := crypt.GCMCodec{}.Open(el.Sealed, h.keys[el.Group])
			if err != nil {
				t.Fatal(err)
			}
			if plain.Doc == victim.ID && plain.Term == term {
				own = el.Sealed
			} else if plain.Doc != victim.ID && other == nil {
				other = el.Sealed
			}
		}
		if own != nil && other != nil {
			break
		}
	}
	if own == nil || other == nil {
		t.Fatalf("no list of the victim's holds another document of group %d", victim.Group)
	}
	for _, tc := range []struct {
		name   string
		target []byte
		want   error
	}{
		{"other document", other, nil},
		{"own element", own, crypt.ErrDecrypt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt := &flipTransport{Local: Local{S: h.srv}, target: tc.target, at: len(tc.target) - 1}
			cl, err := New(tt, h.cl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Login(context.Background(), "writer"); err != nil {
				t.Fatal(err)
			}
			n, err := cl.DeleteDocument(context.Background(), victim, victim.Group)
			if tt.flips == 0 {
				t.Fatal("the tampered element was never sent")
			}
			if tc.want != nil {
				if !errors.Is(err, tc.want) || len(tt.removed) != 0 {
					t.Fatalf("err = %v with %d removes sent, want %v and none", err, len(tt.removed), tc.want)
				}
				return
			}
			if err != nil || n != len(victim.TF) {
				t.Fatalf("removed %d of %d elements, err = %v", n, len(victim.TF), err)
			}
		})
	}
}
