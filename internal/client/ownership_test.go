package client

import (
	"bytes"
	"context"
	"testing"
	"time"

	"zerberr/internal/server"
	"zerberr/internal/store"
)

// TestInsertCopiesPayload: the store copies what it keeps. A caller
// that overwrites its payload buffer once an insert has returned — a
// pooled request body, a reused batch — changes neither what the list
// serves nor its commitment, and a durable store serves the same bytes
// after a restart. Were the caller's buffer kept, the next read would
// serve the new bytes under an unchanged version and cached content
// root, and a restart (the log holds the old bytes) would change the
// content again under one version.
func TestInsertCopiesPayload(t *testing.T) {
	const list = 5
	original := []byte("payload-AAAA")
	ctx := context.Background()
	for _, backend := range []string{"memory", "durable"} {
		for _, path := range []string{"backend", "server"} {
			t.Run(backend+"/"+path, func(t *testing.T) {
				dir := t.TempDir()
				open := func() store.Backend {
					if backend == "memory" {
						return store.NewMemory()
					}
					d, err := store.OpenDurable(dir, store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				b := open()
				defer func() { b.Close() }()
				buf := bytes.Clone(original)
				op := server.InsertOp{List: list, Element: server.StoredElement{Sealed: buf, TRS: 0.5, Group: 0}}
				if path == "backend" {
					if err := b.InsertBatch([]store.BatchInsert{op}); err != nil {
						t.Fatal(err)
					}
				} else {
					srv := server.NewWithBackend([]byte("ownership-secret"), time.Hour, b)
					srv.RegisterUser("writer", 0)
					toks, err := srv.Login(ctx, "writer")
					if err != nil {
						t.Fatal(err)
					}
					if err := (Local{S: srv}).InsertBatch(ctx, toks[0], []server.InsertOp{op}); err != nil {
						t.Fatal(err)
					}
				}
				before, err := b.Commitment(list)
				if err != nil {
					t.Fatal(err)
				}
				for i := range buf {
					buf[i] = 'X'
				}
				check := func(when string, b store.Backend) {
					t.Helper()
					res, err := b.Query(list, nil, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Elements) != 1 || !bytes.Equal(res.Elements[0].Sealed, original) {
						t.Fatalf("%s: the list serves %+v, inserted %q", when, res.Elements, original)
					}
					c, err := b.Commitment(list)
					if err != nil {
						t.Fatal(err)
					}
					if c.Version != before.Version || c.Content != before.Content {
						t.Fatalf("%s: commitment %+v, was %+v", when, c, before)
					}
				}
				check("after the caller reused its buffer", b)
				// A fresh store holding the original bytes commits to the
				// same content: the root was never computed over the
				// caller's buffer.
				fresh := store.NewMemory()
				if err := fresh.InsertBatch([]store.BatchInsert{{List: list, Element: store.Element{Sealed: original, TRS: 0.5}}}); err != nil {
					t.Fatal(err)
				}
				if c, err := fresh.Commitment(list); err != nil || c.Content != before.Content {
					t.Fatalf("content root %x, a store of the original payload commits %x (%v)", before.Content, c.Content, err)
				}
				if backend == "durable" {
					if err := b.Close(); err != nil {
						t.Fatal(err)
					}
					b = open()
					check("after a restart", b)
				}
			})
		}
	}
}
