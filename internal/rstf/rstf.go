// Package rstf implements the paper's primary contribution: the
// Relevance Score Transformation Function of Sections 4.2 and 5.1.
//
// An RSTF maps the term-specific relevance scores of Equation 4 to
// transformed relevance scores (TRS) that are (i) confined to the
// common range [0,1], (ii) uniformly distributed over that range, and
// (iii) ordered exactly as the input scores — so an untrusted index
// server can rank posting elements by TRS without learning which term
// they belong to.
//
// Following Section 5.1.1, the score density of a term is modelled as
// a sum of Gaussian bells centred on the training observations; the
// RSTF is the integral of that density (Eq. 6), estimated with the
// logistic approximation of the Gaussian integral (Eq. 7-8):
//
//	RSTF(x) = (1/N) · Σ_i 1 / (1 + e^(−σ·(x−μ_i)))
//
// σ is the steepness ("scale") parameter selected by cross-validation
// against a control set (Section 5.1.3, Figure 9).
package rstf

import (
	"errors"
	"math"
	"sort"
)

// saturation is the sigmoid argument beyond which the logistic term is
// indistinguishable from 0 or 1 in float64 (e^-37 < 2^-52), letting
// Transform skip saturated training points.
const saturation = 37.0

// RSTF is the trained transformation function for one term.
type RSTF struct {
	// mu holds the training scores (Eq. 5's μ_i), sorted ascending.
	mu []float64
	// sigma is the logistic steepness: larger σ = narrower bells =
	// closer fit to the training sample (Section 5.1.3).
	sigma float64
}

// ErrNoTraining is returned when an RSTF is requested for an empty
// training sample.
var ErrNoTraining = errors.New("rstf: empty training sample")

// New builds an RSTF from the term's training relevance scores with
// steepness sigma. The input is copied and sorted. sigma must be
// positive.
func New(training []float64, sigma float64) (*RSTF, error) {
	if len(training) == 0 {
		return nil, ErrNoTraining
	}
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, errors.New("rstf: sigma must be positive and finite")
	}
	mu := append([]float64(nil), training...)
	sort.Float64s(mu)
	return &RSTF{mu: mu, sigma: sigma}, nil
}

// Sigma returns the steepness parameter.
func (f *RSTF) Sigma() float64 { return f.sigma }

// N returns the number of training points.
func (f *RSTF) N() int { return len(f.mu) }

// TrainingPoints returns a copy of the sorted training scores the
// function was built from. The RSTF is a published artifact, so these
// are public by construction — a fact the adversary simulations
// exploit (see internal/experiments, Ext-B).
func (f *RSTF) TrainingPoints() []float64 {
	return append([]float64(nil), f.mu...)
}

// Transform evaluates the RSTF at x (Eq. 8). The result is in [0,1],
// and Transform is non-decreasing in x. Evaluation is
// O(w + log N) where w is the number of non-saturated bells around x,
// because training points far outside the logistic window contribute
// exactly 0 or 1.
func (f *RSTF) Transform(x float64) float64 {
	n := len(f.mu)
	w := saturation / f.sigma
	// Points with μ_i <= x-w contribute 1; points with μ_i >= x+w
	// contribute 0; only the window in between needs the sigmoid.
	lo := sort.SearchFloat64s(f.mu, x-w)
	hi := sort.SearchFloat64s(f.mu, x+w)
	sum := float64(lo)
	for _, mu := range f.mu[lo:hi] {
		sum += 1 / (1 + math.Exp(-f.sigma*(x-mu)))
	}
	return sum / float64(n)
}

// transformNaive is the textbook O(N) evaluation, kept for
// differential testing of the windowed fast path.
func (f *RSTF) transformNaive(x float64) float64 {
	sum := 0.0
	for _, mu := range f.mu {
		sum += 1 / (1 + math.Exp(-f.sigma*(x-mu)))
	}
	return sum / float64(len(f.mu))
}

// DefaultSigma returns the heuristic steepness used when a term has
// too few control observations for cross-validation: bells about as
// wide as the mean spacing between adjacent training points, which
// spreads the mass without over-fitting. For a single point or zero
// range it falls back to a broad default.
func DefaultSigma(training []float64) float64 {
	if len(training) < 2 {
		return 100
	}
	lo, hi := training[0], training[0]
	for _, v := range training {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 100
	}
	// mean spacing = range/(N-1); steepness ~ 2/spacing.
	return 2 * float64(len(training)-1) / (hi - lo)
}

// Density evaluates the Eq. 5 Gaussian-sum probability density
// implied by the logistic model at x: the derivative of Transform.
// It is used by the Figure 7 experiment to plot the modelled
// distribution.
func (f *RSTF) Density(x float64) float64 {
	sum := 0.0
	for _, mu := range f.mu {
		e := 1 / (1 + math.Exp(-f.sigma*(x-mu)))
		sum += f.sigma * e * (1 - e) // d/dx sigmoid
	}
	return sum / float64(len(f.mu))
}
