package zerber

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zerberr/internal/binfmt"
	"zerberr/internal/corpus"
)

// Serialization format (integers are unsigned varints, floats 64-bit
// IEEE big-endian; read through internal/binfmt):
//
//	magic "ZPLN1" | r(8B) | numLists |
//	  numLists × ( numTerms | numTerms × ( termID | p(8B) ) )
//
// The plan is the dictionary artifact group members receive; in a
// deployment it travels encrypted (see crypt.SealBytes).

const planMagic = "ZPLN1"

// ErrBadPlanFormat reports a corrupted or truncated serialized plan.
var ErrBadPlanFormat = errors.New("zerber: bad serialized plan format")

// WriteTo serializes the plan. It implements io.WriterTo.
func (m *MergePlan) WriteTo(w io.Writer) (int64, error) {
	buf := binary.BigEndian.AppendUint64([]byte(planMagic), math.Float64bits(m.r))
	buf = binary.AppendUvarint(buf, uint64(len(m.lists)))
	for _, terms := range m.lists {
		buf = binary.AppendUvarint(buf, uint64(len(terms)))
		for _, t := range terms {
			buf = binary.AppendUvarint(buf, uint64(t))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.p[t]))
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadPlan deserializes a plan written with WriteTo and verifies its
// r-confidentiality invariant before returning it. Every count is
// bounded by the bytes that remain before anything is sized by it.
func ReadPlan(in io.Reader) (*MergePlan, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlanFormat, err)
	}
	r := binfmt.NewReader(data, ErrBadPlanFormat)
	r.Magic(planMagic)
	rv := r.Float64()
	if r.Err() == nil && (rv <= 0 || math.IsNaN(rv) || math.IsInf(rv, 0)) {
		r.Fail("invalid r %v", rv)
	}
	m := &MergePlan{
		r:      rv,
		assign: make(map[corpus.TermID]ListID),
		p:      make(map[corpus.TermID]float64),
	}
	m.lists = make([][]corpus.TermID, r.Count("lists", 1))
	for li := range m.lists {
		// A term's entry is its ID and p: at least 9 bytes.
		terms := make([]corpus.TermID, r.Count("terms", 9))
		for j := range terms {
			t := corpus.TermID(r.Uvarint32())
			terms[j] = t
			m.assign[t] = ListID(li)
			m.p[t] = r.Float64()
		}
		if r.Err() != nil {
			break
		}
		m.lists[li] = terms
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlanFormat, err)
	}
	return m, nil
}
