package rstf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/binfmt"
	"zerberr/internal/corpus"
)

// Serialization format (integers are unsigned varints, floats are
// 64-bit IEEE big-endian; read through internal/binfmt):
//
//	magic "ZRST1" | fallbackSeed(8B) | numTerms |
//	  numTerms × ( termID | sigma(8B) | N | N × mu(8B) )
//
// Terms are written in ascending ID order; each term's μ values are
// written sorted, matching the in-memory representation.

const storeMagic = "ZRST1"

// minTermBytes is a term's shortest entry: its ID, σ, a sample count
// and one training point.
const minTermBytes = 1 + 8 + 1 + 8

// ErrBadStoreFormat reports a corrupted or truncated serialized store.
var ErrBadStoreFormat = errors.New("rstf: bad serialized store format")

// WriteTo serializes the store. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	buf := binary.BigEndian.AppendUint64([]byte(storeMagic), s.fallbackSeed)
	buf = binary.AppendUvarint(buf, uint64(len(s.terms)))
	for _, t := range s.Terms() {
		f := s.terms[t]
		buf = binary.AppendUvarint(buf, uint64(t))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f.sigma))
		buf = binary.AppendUvarint(buf, uint64(len(f.mu)))
		for _, m := range f.mu {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m))
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadStore deserializes a store written with WriteTo. Every count is
// bounded by the bytes that remain before anything is sized by it.
func ReadStore(in io.Reader) (*Store, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStoreFormat, err)
	}
	r := binfmt.NewReader(data, ErrBadStoreFormat)
	r.Magic(storeMagic)
	seed := r.Uint64()
	n := r.Count("terms", minTermBytes)
	terms := make(map[corpus.TermID]*RSTF, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		tid := corpus.TermID(r.Uvarint32())
		sigma := r.Float64()
		mu := make([]float64, r.Count("training points", 8))
		for j := range mu {
			mu[j] = r.Float64()
		}
		if r.Err() == nil && len(mu) == 0 {
			r.Fail("term %d has empty training sample", tid)
		}
		for j := 1; j < len(mu) && r.Err() == nil; j++ {
			if mu[j] < mu[j-1] {
				r.Fail("term %d training points not sorted", tid)
			}
		}
		if r.Err() != nil {
			break
		}
		f, err := New(mu, sigma)
		if err != nil {
			r.Fail("term %d: %v", tid, err)
			break
		}
		terms[tid] = f
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return &Store{terms: terms, fallbackSeed: seed}, nil
}
