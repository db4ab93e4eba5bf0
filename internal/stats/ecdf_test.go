package stats

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFEval(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.Eval(1) != 0 || len(e.sorted) != 0 {
		t.Fatal("empty ECDF should be all zeros")
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	e := NewECDF(xs)
	xs[0] = 99
	if e.Eval(3) != 1 {
		t.Fatal("ECDF aliased caller's slice")
	}
}

func TestECDFMonotoneQuick(t *testing.T) {
	g := NewRNG(23)
	sample := make([]float64, 200)
	for i := range sample {
		sample[i] = g.Float64() * 10
	}
	e := NewECDF(sample)
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return e.Eval(a) <= e.Eval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFMatchesSortedRank(t *testing.T) {
	g := NewRNG(29)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = g.NormFloat64()
	}
	e := NewECDF(sample)
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for i, x := range sorted {
		got := e.Eval(x)
		// rank of last occurrence of x
		j := i
		for j+1 < len(sorted) && sorted[j+1] == x {
			j++
		}
		want := float64(j+1) / float64(len(sorted))
		if got != want {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, want)
		}
	}
}
