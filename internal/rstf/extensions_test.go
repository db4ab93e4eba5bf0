package rstf

import (
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

func TestJitterStaysInRangeAndDeterministic(t *testing.T) {
	train := map[corpus.TermID][]float64{1: sample(200, 40, discreteNormTF)}
	s := TrainStore(train, nil, StoreConfig{FallbackSeed: 9, Jitter: 1e-2})
	if s.Jitter() != 1e-2 {
		t.Fatalf("Jitter() = %v", s.Jitter())
	}
	for doc := corpus.DocID(0); doc < 200; doc++ {
		a := s.TRS(1, doc, 0.01)
		b := s.TRS(1, doc, 0.01)
		if a != b {
			t.Fatal("jittered TRS not deterministic")
		}
		if a < 0 || a > 1 {
			t.Fatalf("jittered TRS %v outside [0,1]", a)
		}
	}
}

func TestJitterBreaksSharedAtoms(t *testing.T) {
	// Without jitter every element with the same score shares one TRS
	// (the fingerprint channel); with jitter they spread.
	train := map[corpus.TermID][]float64{1: sample(200, 41, discreteNormTF)}
	plain := TrainStore(train, nil, StoreConfig{FallbackSeed: 9})
	jit := TrainStore(train, nil, StoreConfig{FallbackSeed: 9, Jitter: 1e-3})
	seenPlain := map[float64]bool{}
	seenJit := map[float64]bool{}
	for doc := corpus.DocID(0); doc < 100; doc++ {
		seenPlain[plain.TRS(1, doc, 0.01)] = true
		seenJit[jit.TRS(1, doc, 0.01)] = true
	}
	if len(seenPlain) != 1 {
		t.Fatalf("unjittered store gave %d distinct TRS for one score", len(seenPlain))
	}
	if len(seenJit) < 90 {
		t.Fatalf("jittered store gave only %d distinct TRS values", len(seenJit))
	}
}

func TestJitterPreservesOrderBeyondWidth(t *testing.T) {
	train := map[corpus.TermID][]float64{1: sample(500, 42, discreteNormTF)}
	s := TrainStore(train, nil, StoreConfig{FallbackSeed: 9, Jitter: 1e-3})
	f := s.Get(1)
	// Pick score pairs whose un-jittered TRS gap exceeds the jitter
	// width; their jittered order must be preserved for any doc pair.
	g := stats.NewRNG(43)
	for i := 0; i < 200; i++ {
		x1 := 0.002 + 0.05*g.Float64()
		x2 := 0.002 + 0.05*g.Float64()
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if f.Transform(x2)-f.Transform(x1) <= 1e-3 {
			continue // within jitter tolerance: order may flip by design
		}
		d1 := corpus.DocID(g.Intn(1000))
		d2 := corpus.DocID(g.Intn(1000))
		if s.TRS(1, d1, x1) >= s.TRS(1, d2, x2) {
			t.Fatalf("jitter flipped a pair with TRS gap > jitter width (x1=%v x2=%v)", x1, x2)
		}
	}
}

func TestDirectSigmaReasonable(t *testing.T) {
	// The heuristic must land within the useful region: its achieved
	// control-set variance should be within a small factor of the
	// cross-validated optimum.
	train := sample(120, 44, discreteNormTF)
	control := sample(2000, 45, discreteNormTF)
	_, bestVar, _, err := SelectSigma(train, control)
	if err != nil {
		t.Fatal(err)
	}
	ds := DirectSigma(train)
	if ds <= 0 {
		t.Fatalf("DirectSigma = %v", ds)
	}
	f, err := New(train, ds)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]float64, len(control))
	for i, x := range control {
		trs[i] = f.Transform(x)
	}
	got := stats.VarianceFromUniform(trs)
	if got > 5*bestVar {
		t.Fatalf("DirectSigma variance %v vs cross-validated optimum %v (factor %.1f)", got, bestVar, got/bestVar)
	}
}

func TestDirectSigmaDegenerate(t *testing.T) {
	if got := DirectSigma(nil); got <= 0 {
		t.Errorf("nil: %v", got)
	}
	if got := DirectSigma([]float64{0.5}); got <= 0 {
		t.Errorf("single: %v", got)
	}
	if got := DirectSigma([]float64{0.5, 0.5, 0.5, 0.5}); got <= 0 {
		t.Errorf("constant: %v", got)
	}
}
