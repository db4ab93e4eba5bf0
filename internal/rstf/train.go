package rstf

import (
	"math"
	"sort"

	"zerberr/internal/stats"
)

// SigmaScore is one point of the Figure 9 cross-validation curve:
// the uniformness variance achieved on the control set by a given σ.
type SigmaScore struct {
	Sigma    float64
	Variance float64
}

// sigmaGrid is the log-spaced steepness grid searched by SelectSigma:
// 2^2 .. 2^24. The low end over-smooths; the high end memorizes the
// training sample (normalized-TF scores are discrete, so very narrow
// bells turn the transform into a step function whose gaps clump
// unseen control values — the overfitting branch of Figure 9).
var sigmaGrid = func() []float64 {
	var grid []float64
	for e := 2; e <= 24; e++ {
		grid = append(grid, math.Pow(2, float64(e)))
	}
	return grid
}()

// minControl is the number of control observations a term needs for
// per-term σ cross-validation; below it Train uses DefaultSigma.
const minControl = 10

// SelectSigma performs the Section 5.1.3 cross-validation: for every σ
// in sigmaGrid it trains an RSTF on train, transforms the control
// sample, and measures the variance of the TRS distribution with
// respect to a uniform distribution. It returns the best σ, its
// variance, and the whole curve (for Figure 9). SelectSigma returns
// ErrNoTraining if either sample is empty.
func SelectSigma(train, control []float64) (float64, float64, []SigmaScore, error) {
	if len(train) == 0 || len(control) == 0 {
		return 0, 0, nil, ErrNoTraining
	}
	bestSigma := sigmaGrid[0]
	bestVar := math.Inf(1)
	curve := make([]SigmaScore, 0, len(sigmaGrid))
	trs := make([]float64, len(control))
	for _, sigma := range sigmaGrid {
		f, err := New(train, sigma)
		if err != nil {
			return 0, 0, nil, err
		}
		for i, x := range control {
			trs[i] = f.Transform(x)
		}
		v := stats.VarianceFromUniform(trs)
		curve = append(curve, SigmaScore{Sigma: sigma, Variance: v})
		if v < bestVar {
			bestVar = v
			bestSigma = sigma
		}
	}
	return bestSigma, bestVar, curve, nil
}

// Train builds an RSTF for one term, selecting σ by cross-validation
// when the control sample has at least minControl points and falling
// back to DefaultSigma otherwise.
func Train(train, control []float64) (*RSTF, error) {
	if len(control) >= minControl {
		sigma, _, _, err := SelectSigma(train, control)
		if err != nil {
			return nil, err
		}
		return New(train, sigma)
	}
	return New(train, DefaultSigma(train))
}

// DirectSigma estimates a good steepness without cross-validation —
// the direction Section 5.1.3 names as future work ("finding a method
// for directly determining an optimal σ"). It is the plug-in
// bandwidth rule for kernel CDF estimation: bandwidth
// h ≈ c·s·N^(−1/3) with s a robust scale estimate (IQR/1.349, falling
// back to the standard deviation, then to the range), converted to
// logistic steepness via the 1.702 logistic/Gaussian factor. The
// Ext-C ablation quantifies how close it lands to the
// cross-validated optimum.
func DirectSigma(training []float64) float64 {
	n := len(training)
	if n < 2 {
		return 100
	}
	sorted := append([]float64(nil), training...)
	sort.Float64s(sorted)
	iqr := sorted[(3*n)/4] - sorted[n/4]
	scale := iqr / 1.349
	if scale <= 0 {
		scale = stats.StdDev(training)
	}
	if scale <= 0 {
		scale = sorted[n-1] - sorted[0]
	}
	if scale <= 0 {
		return 100
	}
	const c = 1.0
	h := c * scale * math.Pow(float64(n), -1.0/3.0)
	return 1.702 / h
}

// ECDFTransform is the ablation baseline of [21]-style exact order
// mapping: the empirical CDF of the training sample. It shares the
// RSTF's three required properties but memorizes the sample exactly
// (the limiting case of σ→∞).
type ECDFTransform struct {
	e *stats.ECDF
}

// NewECDFTransform builds the baseline from a training sample.
func NewECDFTransform(training []float64) (*ECDFTransform, error) {
	if len(training) == 0 {
		return nil, ErrNoTraining
	}
	return &ECDFTransform{e: stats.NewECDF(training)}, nil
}

// Transform maps a relevance score to its empirical CDF value.
func (t *ECDFTransform) Transform(x float64) float64 { return t.e.Eval(x) }
