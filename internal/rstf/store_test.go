package rstf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

func trainedStore(t *testing.T, seed uint64) *Store {
	t.Helper()
	p := corpus.ProfileStudIP()
	p.NumDocs = 400
	p.VocabSize = 4000
	c := corpus.Generate(p, seed)
	split := corpus.NewSplit(c, 0.4, 0.33, seed)
	train := corpus.TrainingScores(c, split.Train)
	control := corpus.TrainingScores(c, split.Control)
	return TrainStore(train, control, StoreConfig{FallbackSeed: 42})
}

func TestTrainStoreCoversTrainingTerms(t *testing.T) {
	s := trainedStore(t, 1)
	if s.Len() == 0 {
		t.Fatal("store trained no terms")
	}
	for _, term := range s.Terms() {
		f := s.Get(term)
		if f == nil || f.N() == 0 {
			t.Fatalf("term %d has no RSTF", term)
		}
		if f.Sigma() <= 0 {
			t.Fatalf("term %d sigma %v", term, f.Sigma())
		}
	}
}

func TestTrainStoreDeterministicAcrossParallelism(t *testing.T) {
	p := corpus.ProfileStudIP()
	p.NumDocs = 150
	p.VocabSize = 1500
	c := corpus.Generate(p, 5)
	split := corpus.NewSplit(c, 0.4, 0.33, 5)
	train := corpus.TrainingScores(c, split.Train)
	control := corpus.TrainingScores(c, split.Control)
	a := TrainStore(train, control, StoreConfig{FallbackSeed: 1, Parallelism: 1})
	b := TrainStore(train, control, StoreConfig{FallbackSeed: 1, Parallelism: 8})
	if a.Len() != b.Len() {
		t.Fatalf("store sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for _, term := range a.Terms() {
		fa, fb := a.Get(term), b.Get(term)
		if fa.Sigma() != fb.Sigma() || fa.N() != fb.N() {
			t.Fatalf("term %d differs across parallelism", term)
		}
	}
}

func TestStoreTRSRangeAndDeterminism(t *testing.T) {
	s := trainedStore(t, 2)
	g := stats.NewRNG(3)
	for i := 0; i < 500; i++ {
		term := corpus.TermID(g.Intn(4000))
		doc := corpus.DocID(g.Intn(400))
		x := g.Float64() * 0.3
		v1 := s.TRS(term, doc, x)
		v2 := s.TRS(term, doc, x)
		if v1 != v2 {
			t.Fatalf("TRS not deterministic for term %d", term)
		}
		if v1 < 0 || v1 > 1 {
			t.Fatalf("TRS %v outside [0,1]", v1)
		}
	}
}

func TestFallbackTRSUniform(t *testing.T) {
	s := &Store{fallbackSeed: 7}
	var vals []float64
	for doc := corpus.DocID(0); doc < 3000; doc++ {
		vals = append(vals, s.TRS(999999, doc, 0.5))
	}
	v := stats.VarianceFromUniform(vals)
	if v > 1e-3 {
		t.Fatalf("fallback TRS variance from uniform = %v, want small", v)
	}
}

func TestFallbackTRSKeyedBySeed(t *testing.T) {
	a := &Store{fallbackSeed: 1}
	b := &Store{fallbackSeed: 2}
	if a.TRS(5, 10, 0.5) == b.TRS(5, 10, 0.5) {
		t.Fatal("different seeds yielded identical fallback TRS")
	}
}

func TestStoreSerializeRoundTrip(t *testing.T) {
	s := trainedStore(t, 6)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d, buffer %d", n, buf.Len())
	}
	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost terms: %d vs %d", got.Len(), s.Len())
	}
	for _, term := range s.Terms() {
		for _, x := range []float64{0.01, 0.05, 0.2} {
			if a, b := s.TRS(term, 1, x), got.TRS(term, 1, x); a != b {
				t.Fatalf("term %d: TRS differs after round trip (%v vs %v)", term, a, b)
			}
		}
	}
	// Fallback seed must survive too.
	if a, b := s.TRS(999999, 3, 0.5), got.TRS(999999, 3, 0.5); a != b {
		t.Fatal("fallback seed lost in round trip")
	}
}

func TestReadStoreRejectsGarbage(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader([]byte("garbage data here"))); !errors.Is(err, ErrBadStoreFormat) {
		t.Fatalf("err = %v, want ErrBadStoreFormat", err)
	}
}

// TestReadStoreRefusesTermPast32Bits: term IDs are 32-bit, so a store
// training term 2³²+7 is malformed rather than a store training term 7.
// (FuzzReadStore's seed_term_past_32_bits holds the same bytes.)
func TestReadStoreRefusesTermPast32Bits(t *testing.T) {
	data := binary.BigEndian.AppendUint64([]byte(storeMagic), 1)
	data = binary.AppendUvarint(data, 1) // terms
	data = binary.AppendUvarint(data, 1<<32+7)
	data = binary.BigEndian.AppendUint64(data, math.Float64bits(0.1)) // sigma
	data = binary.AppendUvarint(data, 1)                              // training points
	data = binary.BigEndian.AppendUint64(data, math.Float64bits(0.5))
	s, err := ReadStore(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("term 2^32+7 read as %v", s.Terms())
	}
	if !errors.Is(err, ErrBadStoreFormat) {
		t.Fatalf("err = %v, want ErrBadStoreFormat", err)
	}
}

func TestReadStoreRejectsTruncated(t *testing.T) {
	s := trainedStore(t, 8)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 13, buf.Len() / 2, buf.Len() - 3} {
		if _, err := ReadStore(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestTrainStoreSkipsEmptySamples(t *testing.T) {
	train := map[corpus.TermID][]float64{
		1: {0.1, 0.2},
		2: {},
	}
	s := TrainStore(train, nil, StoreConfig{})
	if !s.Has(1) {
		t.Fatal("term 1 missing")
	}
	if s.Has(2) {
		t.Fatal("term with empty sample should stay on fallback")
	}
}
