package rstf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"zerberr/internal/stats"
)

func sample(n int, seed uint64, gen func(g *stats.RNG) float64) []float64 {
	g := stats.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = gen(g)
	}
	return xs
}

func normTFLike(g *stats.RNG) float64 {
	// Skewed scores resembling normalized TF: mostly small, long tail.
	v := g.Float64()
	return 0.001 + 0.2*v*v*v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 10); !errors.Is(err, ErrNoTraining) {
		t.Errorf("empty training: err = %v, want ErrNoTraining", err)
	}
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New([]float64{0.1}, sigma); err == nil {
			t.Errorf("sigma %v accepted", sigma)
		}
	}
}

func TestTransformRange(t *testing.T) {
	f, err := New(sample(200, 1, normTFLike), 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 0.0001, 0.05, 0.2, 0.5, 1, 100} {
		y := f.Transform(x)
		if y < 0 || y > 1 || math.IsNaN(y) {
			t.Fatalf("Transform(%v) = %v outside [0,1]", x, y)
		}
	}
}

func TestTransformMonotoneQuick(t *testing.T) {
	f, err := New(sample(300, 2, normTFLike), 800)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return f.Transform(a) <= f.Transform(b)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformStrictOrderOnDistinctScores(t *testing.T) {
	// Section 4.2: the RSTF must preserve the order of relevance
	// scores. For finite sigma, sigmoids are strictly increasing, so
	// distinct scores inside the data range map to distinct TRS.
	f, err := New(sample(100, 3, normTFLike), 200)
	if err != nil {
		t.Fatal(err)
	}
	xs := []float64{0.01, 0.02, 0.05, 0.08, 0.1, 0.15}
	for i := 1; i < len(xs); i++ {
		lo, hi := f.Transform(xs[i-1]), f.Transform(xs[i])
		if !(lo < hi) {
			t.Fatalf("order not strictly preserved: f(%v)=%v, f(%v)=%v", xs[i-1], lo, xs[i], hi)
		}
	}
}

func TestWindowedMatchesNaive(t *testing.T) {
	for _, sigma := range []float64{4, 64, 1024, 65536} {
		f, err := New(sample(500, 4, normTFLike), sigma)
		if err != nil {
			t.Fatal(err)
		}
		g := stats.NewRNG(5)
		for i := 0; i < 200; i++ {
			x := g.Float64() * 0.3
			fast, slow := f.Transform(x), f.transformNaive(x)
			if math.Abs(fast-slow) > 1e-9 {
				t.Fatalf("sigma %v: fast %v vs naive %v at x=%v", sigma, fast, slow, x)
			}
		}
	}
}

func TestTransformUniformizes(t *testing.T) {
	// Train and evaluate on two fresh samples of the same skewed
	// distribution: the TRS of the held-out sample must be far more
	// uniform than the raw scores.
	train := sample(2000, 6, normTFLike)
	fresh := sample(2000, 7, normTFLike)
	sigma, _, _, err := SelectSigma(train, sample(500, 8, normTFLike))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(train, sigma)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]float64, len(fresh))
	for i, x := range fresh {
		trs[i] = f.Transform(x)
	}
	rawVar := stats.VarianceFromUniform(fresh)
	trsVar := stats.VarianceFromUniform(trs)
	if trsVar > rawVar/20 {
		t.Fatalf("TRS variance %v not much below raw variance %v", trsVar, rawVar)
	}
	if trsVar > 1e-3 {
		t.Fatalf("TRS variance %v too large for a trained transform", trsVar)
	}
}

// discreteNormTF mimics real normalized-TF observations: small integer
// term frequencies over lognormal integer document lengths, so the
// score support is atomic and a small training sample covers only part
// of it. That discreteness is what creates the overfitting branch of
// the paper's Figure 9: with very narrow bells the transform becomes a
// staircase over the memorized training values and unseen control
// values clump onto its steps.
func discreteNormTF(g *stats.RNG) float64 {
	tf := 1
	for tf < 8 && g.Float64() < 0.45 {
		tf++
	}
	docLen := int(g.LogNormal(5.3, 0.7))
	if docLen < 30 {
		docLen = 30
	}
	if docLen > 3000 {
		docLen = 3000
	}
	return float64(tf) / float64(docLen)
}

func TestSelectSigmaCurveIsUShaped(t *testing.T) {
	// Figure 9: variance decreases with growing sigma, reaches a
	// minimum, then rises again as the transform memorizes the
	// training sample. A small per-term training sample (as real terms
	// have) against a large control set exposes both branches.
	train := sample(60, 9, discreteNormTF)
	control := sample(4000, 10, discreteNormTF)
	best, bestVar, curve, err := SelectSigma(train, control)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(sigmaGrid) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(sigmaGrid))
	}
	// The over-smoothing end must be far worse than the optimum, the
	// memorization end clearly worse.
	if !(curve[0].Variance > 10*bestVar) {
		t.Fatalf("smallest sigma variance %v not far worse than best %v", curve[0].Variance, bestVar)
	}
	if !(curve[len(curve)-1].Variance > 1.3*bestVar) {
		t.Fatalf("largest sigma variance %v not worse than best %v (no overfitting branch)", curve[len(curve)-1].Variance, bestVar)
	}
	if best == curve[0].Sigma || best == curve[len(curve)-1].Sigma {
		t.Fatalf("optimal sigma %v sits on the grid edge", best)
	}
}

func TestSelectSigmaErrors(t *testing.T) {
	if _, _, _, err := SelectSigma(nil, []float64{1}); !errors.Is(err, ErrNoTraining) {
		t.Error("nil train accepted")
	}
	if _, _, _, err := SelectSigma([]float64{1}, nil); !errors.Is(err, ErrNoTraining) {
		t.Error("nil control accepted")
	}
}

func TestDefaultSigma(t *testing.T) {
	if got := DefaultSigma([]float64{0.5}); got <= 0 {
		t.Errorf("single point sigma %v", got)
	}
	if got := DefaultSigma([]float64{0.5, 0.5, 0.5}); got <= 0 {
		t.Errorf("zero range sigma %v", got)
	}
	xs := []float64{0, 0.25, 0.5, 0.75, 1.0}
	want := 2 * 4.0 / 1.0
	if got := DefaultSigma(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("DefaultSigma = %v, want %v", got, want)
	}
}

func TestTrainFallsBackOnSmallControl(t *testing.T) {
	train := sample(100, 11, normTFLike)
	f, err := Train(train, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Sigma() != DefaultSigma(train) {
		t.Fatalf("sigma = %v, want DefaultSigma fallback %v", f.Sigma(), DefaultSigma(train))
	}
}

func TestDensityIntegratesToTransformDelta(t *testing.T) {
	f, err := New(sample(50, 12, normTFLike), 300)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric integral of Density over [a,b] should approximate
	// Transform(b)-Transform(a).
	a, b := 0.0, 0.25
	steps := 20000
	h := (b - a) / float64(steps)
	integral := 0.0
	for i := 0; i < steps; i++ {
		integral += f.Density(a+(float64(i)+0.5)*h) * h
	}
	want := f.Transform(b) - f.Transform(a)
	if math.Abs(integral-want) > 1e-3 {
		t.Fatalf("integral %v vs transform delta %v", integral, want)
	}
}

func TestECDFTransform(t *testing.T) {
	tr, err := NewECDFTransform([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Transform(0.05); got != 0 {
		t.Errorf("Transform(0.05) = %v", got)
	}
	if got := tr.Transform(0.2); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Transform(0.2) = %v", got)
	}
	if got := tr.Transform(1); got != 1 {
		t.Errorf("Transform(1) = %v", got)
	}
	if _, err := NewECDFTransform(nil); !errors.Is(err, ErrNoTraining) {
		t.Error("empty ECDF training accepted")
	}
}
