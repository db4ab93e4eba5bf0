package client

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// stallingTransport answers every sub-query with an empty window that
// claims more is to come: what a buggy or adversarial server can send
// to keep a round loop from ever advancing.
type stallingTransport struct {
	Transport
	rounds atomic.Int64
}

func (s *stallingTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	s.rounds.Add(1)
	return BatchQueryResult{Responses: make([]server.QueryResponse, len(queries))}, nil
}

// TestShortWindowFailsFast: a non-exhausted window shorter than asked
// is an error after one round, on both round loops. Without the check
// DeleteDocument never advances its cursor (only the deadline ends it)
// and Search doubles its batch until the count overflows to zero and
// then spins the same way. On a proved read the report is a failed
// verification, as it was before the check existed.
func TestShortWindowFailsFast(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 31)
	stall := &stallingTransport{Transport: Local{S: h.srv}}
	cl, err := New(stall, Config{Plan: h.plan, Store: h.store, Codec: crypt.GCMCodec{}, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	d := h.c.Docs[0]
	var term corpus.TermID
	for term = range d.TF {
		break
	}
	ops := map[string]func(context.Context) error{
		"Search": func(ctx context.Context) error {
			_, _, err := cl.Search(ctx, []corpus.TermID{term}, 5)
			return err
		},
		"Search/proved": func(ctx context.Context) error {
			_, _, err := cl.Search(ctx, []corpus.TermID{term}, 5, WithProof())
			return err
		},
		"DeleteDocument": func(ctx context.Context) error {
			_, err := cl.DeleteDocument(ctx, d, d.Group)
			return err
		},
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			before := stall.rounds.Load()
			err := op(ctx)
			if err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v, want the short window reported", err)
			}
			if !strings.Contains(err.Error(), "does not end the list") {
				t.Fatalf("error does not describe the window: %v", err)
			}
			if proved := strings.HasSuffix(name, "/proved"); errors.Is(err, ErrProofInvalid) != proved {
				t.Fatalf("proved %v, but got %v", proved, err)
			}
			if n := stall.rounds.Load() - before; n != 1 {
				t.Fatalf("%d rounds before giving up, want 1", n)
			}
		})
	}
}
