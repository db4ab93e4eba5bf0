package crypt

import (
	"errors"
	"math/rand/v2"
	"testing"

	"zerberr/internal/corpus"
)

// TestPeekAgreesWithOpen: under random keys, the peek of every element
// of a sealed corpus reads the doc and term Open authenticates, for
// both codecs, and a ciphertext of the wrong size is ErrDecrypt.
func TestPeekAgreesWithOpen(t *testing.T) {
	rng := rand.New(rand.NewPCG(38, 1))
	for _, codec := range codecs() {
		keys := make([]GroupKey, 4)
		peekers := make([]Peeker, len(keys))
		for g := range keys {
			var err error
			if keys[g], err = NewGroupKey(rngReader{rng}); err != nil {
				t.Fatal(err)
			}
			if peekers[g], err = codec.Peeker(keys[g]); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			g := rng.IntN(len(keys))
			el := Element{
				Doc:   corpus.DocID(rng.Uint32N(1 << compactDocBits)),
				Term:  corpus.TermID(rng.Uint32N(1 << compactTermBits)),
				Score: rng.Float64(),
			}
			ct, err := codec.Seal(el, keys[g])
			if err != nil {
				t.Fatal(err)
			}
			opened, err := codec.Open(ct, keys[g])
			if err != nil {
				t.Fatal(err)
			}
			doc, term, err := peekers[g].Peek(ct)
			if err != nil || doc != opened.Doc || term != opened.Term {
				t.Fatalf("%s: peek (%d, %d, %v), open (%d, %d)", codec.Name(), doc, term, err, opened.Doc, opened.Term)
			}
		}
		for _, n := range []int{0, 1, codec.WireSize() - 1, codec.WireSize() + 1} {
			if _, _, err := peekers[0].Peek(make([]byte, n)); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("%s: peek of %d bytes: %v, want ErrDecrypt", codec.Name(), n, err)
			}
		}
	}
}

// rngReader reads key bytes from a seeded generator.
type rngReader struct{ rng *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Uint32())
	}
	return len(p), nil
}

// FuzzPeek: a peek never panics on arbitrary bytes, and whenever Open
// accepts them the peek reads the same doc and term.
func FuzzPeek(f *testing.F) {
	key := testKey()
	el := Element{Doc: 77, Term: 4096, Score: 0.5}
	for _, codec := range codecs() {
		ct, err := codec.Seal(el, key)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ct)
		f.Add(ct[1:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ct []byte) {
		for _, codec := range codecs() {
			p, err := codec.Peeker(key)
			if err != nil {
				t.Fatal(err)
			}
			doc, term, peekErr := p.Peek(ct)
			opened, err := codec.Open(ct, key)
			if err != nil {
				continue
			}
			if peekErr != nil || doc != opened.Doc || term != opened.Term {
				t.Fatalf("%s: peek (%d, %d, %v), open (%d, %d)", codec.Name(), doc, term, peekErr, opened.Doc, opened.Term)
			}
		}
	})
}
