package zerber

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/corpus"
)

// Serialization format (integers are unsigned varints, floats 64-bit
// IEEE big-endian):
//
//	magic "ZPLN1" | r(8B) | numLists |
//	  numLists × ( numTerms | numTerms × ( termID | p(8B) ) )
//
// The plan is the dictionary artifact group members receive; in a
// deployment it travels encrypted (see crypt.SealBytes).

var planMagic = []byte("ZPLN1")

// ErrBadPlanFormat reports a corrupted or truncated serialized plan.
var ErrBadPlanFormat = errors.New("zerber: bad serialized plan format")

// WriteTo serializes the plan. It implements io.WriterTo.
func (m *MergePlan) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(planMagic); err != nil {
		return cw.n, err
	}
	var f8 [8]byte
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
	if err := writeFloat(m.r); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(uint64(len(m.lists))); err != nil {
		return cw.n, err
	}
	for _, terms := range m.lists {
		if err := writeUvarint(uint64(len(terms))); err != nil {
			return cw.n, err
		}
		for _, t := range terms {
			if err := writeUvarint(uint64(t)); err != nil {
				return cw.n, err
			}
			if err := writeFloat(m.p[t]); err != nil {
				return cw.n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadPlan deserializes a plan written with WriteTo and verifies its
// r-confidentiality invariant before returning it.
func ReadPlan(r io.Reader) (*MergePlan, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(planMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadPlanFormat, err)
	}
	if string(magic) != string(planMagic) {
		return nil, fmt.Errorf("%w: magic %q", ErrBadPlanFormat, magic)
	}
	var f8 [8]byte
	readFloat := func() (float64, error) {
		if _, err := io.ReadFull(br, f8[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadPlanFormat, err)
		}
		return math.Float64frombits(binary.BigEndian.Uint64(f8[:])), nil
	}
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadPlanFormat, err)
		}
		return v, nil
	}
	rv, err := readFloat()
	if err != nil {
		return nil, err
	}
	if rv <= 0 || math.IsNaN(rv) || math.IsInf(rv, 0) {
		return nil, fmt.Errorf("%w: invalid r %v", ErrBadPlanFormat, rv)
	}
	numLists, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// Lists and their terms grow as they actually arrive, never sized by
	// a count the input claims: a corrupted count runs into the end of
	// the input before it allocates more than a small multiple of what
	// was read.
	m := &MergePlan{
		r:      rv,
		assign: make(map[corpus.TermID]ListID),
		p:      make(map[corpus.TermID]float64),
	}
	for li := uint64(0); li < numLists; li++ {
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		var terms []corpus.TermID
		for j := uint64(0); j < n; j++ {
			tid, err := readUvarint()
			if err != nil {
				return nil, err
			}
			p, err := readFloat()
			if err != nil {
				return nil, err
			}
			t := corpus.TermID(tid)
			terms = append(terms, t)
			m.assign[t] = ListID(li)
			m.p[t] = p
		}
		m.lists = append(m.lists, terms)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlanFormat, err)
	}
	return m, nil
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
