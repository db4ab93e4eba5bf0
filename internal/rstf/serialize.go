package rstf

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/corpus"
)

// Serialization format (integers are unsigned varints, floats are
// 64-bit IEEE big-endian):
//
//	magic "ZRST1" | fallbackSeed(8B) | numTerms |
//	  numTerms × ( termID | sigma(8B) | N | N × mu(8B) )
//
// Terms are written in ascending ID order; each term's μ values are
// written sorted, matching the in-memory representation.

var storeMagic = []byte("ZRST1")

// ErrBadStoreFormat reports a corrupted or truncated serialized store.
var ErrBadStoreFormat = errors.New("rstf: bad serialized store format")

// WriteTo serializes the store. It implements io.WriterTo.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(storeMagic); err != nil {
		return cw.n, err
	}
	var f8 [8]byte
	binary.BigEndian.PutUint64(f8[:], s.fallbackSeed)
	if _, err := bw.Write(f8[:]); err != nil {
		return cw.n, err
	}
	var vbuf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(vbuf[:], v)
		_, err := bw.Write(vbuf[:n])
		return err
	}
	writeFloat := func(v float64) error {
		binary.BigEndian.PutUint64(f8[:], math.Float64bits(v))
		_, err := bw.Write(f8[:])
		return err
	}
	if err := writeUvarint(uint64(len(s.terms))); err != nil {
		return cw.n, err
	}
	for _, t := range s.Terms() {
		f := s.terms[t]
		if err := writeUvarint(uint64(t)); err != nil {
			return cw.n, err
		}
		if err := writeFloat(f.sigma); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(len(f.mu))); err != nil {
			return cw.n, err
		}
		for _, m := range f.mu {
			if err := writeFloat(m); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadStore deserializes a store written with WriteTo.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(storeMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadStoreFormat, err)
	}
	if string(magic) != string(storeMagic) {
		return nil, fmt.Errorf("%w: magic %q", ErrBadStoreFormat, magic)
	}
	var f8 [8]byte
	readFloat := func() (float64, error) {
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadStoreFormat, err)
		}
		return math.Float64frombits(binary.BigEndian.Uint64(f8[:])), nil
	}
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadStoreFormat, err)
		}
		return v, nil
	}
	if _, err := io.ReadFull(br, f8[:]); err != nil {
		return nil, fmt.Errorf("%w: missing seed: %v", ErrBadStoreFormat, err)
	}
	seed := binary.BigEndian.Uint64(f8[:])
	numTerms, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Nothing is sized by a count the input claims: the map and each
	// sample grow as elements actually arrive, so a corrupted count runs
	// into the end of the input before it allocates more than a small
	// multiple of what was read.
	terms := make(map[corpus.TermID]*RSTF)
	for i := uint64(0); i < numTerms; i++ {
		tid, err := readUvarint()
		if err != nil {
			return nil, err
		}
		sigma, err := readFloat()
		if err != nil {
			return nil, err
		}
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: term %d has empty training sample", ErrBadStoreFormat, tid)
		}
		var mu []float64
		for j := uint64(0); j < n; j++ {
			v, err := readFloat()
			if err != nil {
				return nil, err
			}
			if j > 0 && v < mu[j-1] {
				return nil, fmt.Errorf("%w: term %d training points not sorted", ErrBadStoreFormat, tid)
			}
			mu = append(mu, v)
		}
		f, err := New(mu, sigma)
		if err != nil {
			return nil, fmt.Errorf("%w: term %d: %v", ErrBadStoreFormat, tid, err)
		}
		terms[corpus.TermID(tid)] = f
	}
	return &Store{terms: terms, fallbackSeed: seed}, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
