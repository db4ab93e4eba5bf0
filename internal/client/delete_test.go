package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
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
