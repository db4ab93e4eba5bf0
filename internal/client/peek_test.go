package client

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// raceEnabled is set by race_test.go when the race detector, whose
// instrumentation allocates, is compiled in.
var raceEnabled bool

// flipTransport is a server that tampers with what it sends: it flips
// byte at of every answered element whose sealed bytes are target, and
// counts the flips. It records the remove ops it is sent and applies
// none of them, so one index serves any number of deletes.
type flipTransport struct {
	Local
	target  []byte
	at      int
	flips   int
	removed []server.RemoveOp
}

func (t *flipTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	res, err := t.Local.QueryBatch(ctx, toks, queries)
	for i := range res.Responses {
		// The elements alias what the server keeps and caches.
		els := slices.Clone(res.Responses[i].Elements)
		for j := range els {
			if t.target != nil && bytes.Equal(els[j].Sealed, t.target) {
				els[j].Sealed = slices.Clone(els[j].Sealed)
				els[j].Sealed[t.at] ^= 0xff
				t.flips++
			}
		}
		res.Responses[i].Elements = els
	}
	return res, err
}

func (t *flipTransport) RemoveBatch(_ context.Context, _ crypt.Token, ops []server.RemoveOp) error {
	t.removed = append(t.removed, ops...)
	return nil
}

// TestAbsorbOfOtherTermsAllocatesNothing: a window in which no element
// carries the scan's term costs one peek per element and no allocation.
func TestAbsorbOfOtherTermsAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const term = corpus.TermID(7)
	keys := map[int]crypt.GroupKey{}
	for g := range 4 {
		keys[g] = crypt.KeyFromPassphrase("absorb-" + string(rune('a'+g)))
	}
	codec := crypt.GCMCodec{}
	resp := server.QueryResponse{Elements: make([]server.StoredElement, 1000)}
	for i := range resp.Elements {
		g := i % len(keys)
		sealed, err := codec.Seal(crypt.Element{Doc: corpus.DocID(i), Term: term + 1 + corpus.TermID(i%5), Score: 0.5}, keys[g])
		if err != nil {
			t.Fatal(err)
		}
		resp.Elements[i] = server.StoredElement{Sealed: sealed, TRS: 1 - float64(i)/1000, Group: g}
	}
	r := &elementReader{codec: codec, keys: keys, peekers: map[int]crypt.Peeker{}}
	s := new(termScan)
	var absorbErr error
	allocs := testing.AllocsPerRun(20, func() {
		*s = termScan{term: term, k: 10, batch: len(resp.Elements)}
		absorbErr = s.absorb(resp, r)
	})
	if absorbErr != nil {
		t.Fatal(absorbErr)
	}
	if len(s.matches) != 0 || s.offset != len(resp.Elements) {
		t.Fatalf("absorb kept %d matches at offset %d", len(s.matches), s.offset)
	}
	if allocs != 0 {
		t.Fatalf("absorb of 1000 other-term elements: %v allocations, want 0", allocs)
	}
}
