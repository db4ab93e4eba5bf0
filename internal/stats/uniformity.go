package stats

import (
	"math"
	"sort"
)

// VarianceFromUniform quantifies how far a sample is from the uniform
// distribution on [0,1]. Section 5.1.3 of the paper selects the RSTF's
// σ parameter by minimizing "the variance in the distribution of the
// TRS values ... with respect to a uniform distribution"; this is our
// concrete reading of that measure, and the only one the repository
// computes: rstf.SelectSigma minimizes it (Figure 9 plots its curve),
// and the ablation compares transforms by it.

// VarianceFromUniform returns the mean squared deviation of the sorted
// sample from the uniform order statistics i/(n+1). A perfectly
// uniform sample scores near p(1-p)/n on average; the paper's Figure 9
// reports values below 2e-5 for well-chosen σ on large control sets.
// It returns NaN for an empty sample. xs is not modified.
func VarianceFromUniform(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sum := 0.0
	for i, x := range sorted {
		expect := float64(i+1) / float64(n+1)
		d := x - expect
		sum += d * d
	}
	return sum / float64(n)
}
