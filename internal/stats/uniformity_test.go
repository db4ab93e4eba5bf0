package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func uniformSample(n int, seed uint64) []float64 {
	g := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Float64()
	}
	return xs
}

func skewedSample(n int, seed uint64) []float64 {
	g := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		v := g.Float64()
		xs[i] = v * v * v // mass piles up near 0
	}
	return xs
}

func TestVarianceFromUniformDiscriminates(t *testing.T) {
	u := VarianceFromUniform(uniformSample(2000, 1))
	s := VarianceFromUniform(skewedSample(2000, 1))
	if !(u < s) {
		t.Fatalf("uniform sample (%v) should score below skewed sample (%v)", u, s)
	}
	if u > 1e-3 {
		t.Fatalf("uniform sample scored %v, expected a small value", u)
	}
}

func TestVarianceFromUniformPerfectGrid(t *testing.T) {
	n := 100
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i+1) / float64(n+1)
	}
	if got := VarianceFromUniform(xs); got != 0 {
		t.Fatalf("perfect grid scored %v, want 0", got)
	}
}

func TestUniformityEmpty(t *testing.T) {
	if !math.IsNaN(VarianceFromUniform(nil)) {
		t.Error("VarianceFromUniform(nil) should be NaN")
	}
}

func TestUniformityDoesNotMutate(t *testing.T) {
	xs := []float64{0.9, 0.1, 0.5}
	VarianceFromUniform(xs)
	if xs[0] != 0.9 || xs[1] != 0.1 || xs[2] != 0.5 {
		t.Fatalf("VarianceFromUniform mutated its input: %v", xs)
	}
}

func TestUniformityNonNegativeQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(math.Abs(x), 1))
			}
		}
		if len(xs) == 0 {
			return true
		}
		return VarianceFromUniform(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
