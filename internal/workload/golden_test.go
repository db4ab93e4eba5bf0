package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"zerberr/internal/corpus"
)

// TestStreamGolden pins the bytes of both generators at seed 7: the
// first 10 000 ops of Stream for the three op mixes in use (soak's
// zero value, the benchmark's search-only stream and mixed's
// 60/28/12), and Generate's queries. A changed digest means a seeded
// run no longer replays the workload it replayed before.
func TestStreamGolden(t *testing.T) {
	c := testCorpus(1)
	for _, tc := range []struct {
		name string
		cfg  StreamConfig
		want string
	}{
		{"soak", StreamConfig{}, "c4ffa76ffedbb87d8289dc455c832659db582c36cbec4a9f6c14fc2d997724ee"},
		{"search", StreamConfig{SearchFrac: 1}, "0e822b2ae81044c56868bef8208b298aa7081f906c6b95b35758566d0ad90a4a"},
		{"mixed", StreamConfig{SearchFrac: 0.60, InsertFrac: 0.28, RemoveFrac: 0.12}, "948c9262bc1eaaf612f94f591dea7be406d424e6d02f767abaa8c92f9f8fc47d"},
	} {
		h := sha256.New()
		var b []byte
		for _, op := range collect(c, tc.cfg, 7, 10_000) {
			b = binary.AppendUvarint(b[:0], op.Seq)
			b = binary.AppendUvarint(b, op.User)
			b = append(b, byte(op.Kind))
			b = appendTerms(b, op.Terms)
			if d := op.Doc; d != nil {
				b = binary.AppendUvarint(b, uint64(d.ID))
				b = binary.AppendUvarint(b, uint64(d.Group))
				terms := make([]corpus.TermID, 0, len(d.TF))
				for term := range d.TF {
					terms = append(terms, term)
				}
				slices.Sort(terms)
				b = binary.AppendUvarint(b, uint64(len(terms)))
				for _, term := range terms {
					b = binary.AppendUvarint(b, uint64(term))
					b = binary.AppendUvarint(b, uint64(d.TF[term]))
				}
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("Stream %s: digest %s, want %s", tc.name, got, tc.want)
		}
	}

	h := sha256.New()
	var b []byte
	for _, q := range Generate(c, 2000, 7).Queries {
		b = appendTerms(b[:0], q.Terms)
		h.Write(b)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "acbc365f21dcee7afbb5287ff573c6b442aaded83d6a07a7dba894b633c12f08"; got != want {
		t.Errorf("Generate: digest %s, want %s", got, want)
	}
}

// appendTerms appends a length-prefixed term list.
func appendTerms(b []byte, terms []corpus.TermID) []byte {
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, term := range terms {
		b = binary.AppendUvarint(b, uint64(term))
	}
	return b
}
