package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a
// sample. It is the "exact" order-preserving transform used as an
// ablation baseline against the paper's Gaussian-sum RSTF: evaluating
// the ECDF of a term's training scores at a new score is exactly the
// transform the RSTF approximates smoothly.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample. The input is copied.
func NewECDF(sample []float64) *ECDF {
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Eval returns the fraction of sample points <= x, in [0,1]. For an
// empty sample it returns 0.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// include ties at x
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}
