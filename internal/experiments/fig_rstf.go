package experiments

import (
	"fmt"
	"math"

	"zerberr/internal/corpus"
	"zerberr/internal/plot"
	"zerberr/internal/rstf"
	"zerberr/internal/stats"
)

// Fig07GaussianSum reproduces Figure 7: the probability density
// modelled from five training values — one Gaussian-like bell per
// value (solid lines in the paper) and their accumulated sum (dashed).
func Fig07GaussianSum(e *Env) (*Result, error) {
	training := []float64{0.12, 0.18, 0.22, 0.40, 0.55}
	const sigma = 40
	sum, err := rstf.New(training, sigma)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ChartOpts: plot.Options{XLabel: "relevance score", YLabel: "probability density"},
	}
	grid := linspace(0, 0.7, 200)
	// Individual bells.
	for i, mu := range training {
		single, err := rstf.New([]float64{mu}, sigma)
		if err != nil {
			return nil, err
		}
		ys := make([]float64, len(grid))
		for j, x := range grid {
			// Scale per-bell density by 1/N so bells visually stack to
			// the sum, as in the paper's figure.
			ys[j] = single.Density(x) / float64(len(training))
		}
		res.Series = append(res.Series, stats.Series{Name: fmt.Sprintf("bell μ=%.2f", mu), X: grid, Y: ys})
		_ = i
	}
	ys := make([]float64, len(grid))
	for j, x := range grid {
		ys[j] = sum.Density(x)
	}
	res.Series = append(res.Series, stats.Series{Name: "accumulated density", X: grid, Y: ys})
	res.Notes = append(res.Notes,
		"paper: the dashed accumulated curve peaks where training values cluster (here around 0.12-0.22)",
		"the density of training points in a region encodes the probability of unseen values there (Section 5.1.1)")
	return res, nil
}

// probeTermWithSamples picks a term with a rich training sample for
// the RSTF illustration figures (the paper uses the German term
// "Vergütung").
func probeTermWithSamples(c *corpus.Corpus, train map[corpus.TermID][]float64, minSamples int) (corpus.TermID, []float64) {
	byDF := c.TermsByDF()
	// Prefer a mid-frequency term: skip stopword-like heads.
	for _, t := range byDF[len(byDF)/100:] {
		if len(train[t]) >= minSamples {
			return t, train[t]
		}
	}
	// Fall back to the best-sampled term, ties to the lowest TermID so
	// the figure's term does not depend on map order.
	var best corpus.TermID
	bestN := 0
	for t, xs := range train {
		if n := len(xs); n > bestN || (n == bestN && n > 0 && t < best) {
			best, bestN = t, n
		}
	}
	return best, train[best]
}

// Fig08ExampleRSTF reproduces Figure 8: the trained transformation
// curve of one term, mapping input relevance scores to TRS in [0,1].
func Fig08ExampleRSTF(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	train := corpus.TrainingScores(sys.Corpus, sys.Split.Train)
	term, _ := probeTermWithSamples(sys.Corpus, train, 40)
	f := sys.Store.Get(term)
	if f == nil {
		return nil, fmt.Errorf("fig08: probe term %d has no trained RSTF", term)
	}
	lo, hi := trainRange(train[term])
	grid := linspace(math.Max(0, lo-0.2*(hi-lo)), hi+0.2*(hi-lo), 300)
	ys := make([]float64, len(grid))
	for i, x := range grid {
		ys[i] = f.Transform(x)
	}
	res := &Result{
		Title:     fmt.Sprintf("Figure 8: example RSTF for term %q", sys.Corpus.Term(term)),
		ChartOpts: plot.Options{XLabel: "input relevance score", YLabel: "output TRS"},
		Series:    []stats.Series{{Name: "RSTF", X: grid, Y: ys}},
		Headers:   []string{"term", "training points", "sigma", "TRS(min)", "TRS(max)"},
		Rows: [][]interface{}{{
			sys.Corpus.Term(term), f.N(), f.Sigma(), ys[0], ys[len(ys)-1],
		}},
	}
	res.Notes = append(res.Notes,
		"paper: the curve is monotone, steepest where training scores are densest, and spans [0,1]",
		"steep regions spread crowded score areas over a wider TRS range — the uniformization at work")
	return res, nil
}

// Fig09SigmaSelection reproduces Figure 9: TRS variance in the control
// set as a function of σ — decreasing, minimum at the optimum, then
// rising into overfitting.
func Fig09SigmaSelection(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	train := corpus.TrainingScores(sys.Corpus, sys.Split.Train)
	control := corpus.TrainingScores(sys.Corpus, sys.Split.Control)
	term, best := bestCalibratedTerm(train, control)
	if best < 5 {
		return nil, fmt.Errorf("fig09: best term has only %d train/control samples", best)
	}
	bestSigma, bestVar, curve, err := rstf.SelectSigma(train[term], control[term])
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	for i, p := range curve {
		xs[i] = p.Sigma
		ys[i] = p.Variance
	}
	res := &Result{
		Title:     fmt.Sprintf("Figure 9: TRS variance vs σ (term %q)", sys.Corpus.Term(term)),
		ChartOpts: plot.Options{LogX: true, LogY: true, XLabel: "sigma", YLabel: "variance vs uniform"},
		Series:    []stats.Series{{Name: "control-set variance", X: xs, Y: ys}},
		Headers:   []string{"optimal sigma", "min variance", "variance at smallest sigma", "variance at largest sigma"},
		Rows:      [][]interface{}{{bestSigma, bestVar, ys[0], ys[len(ys)-1]}},
	}
	res.Notes = append(res.Notes,
		"paper: variance first falls with growing sigma, reaches a minimum at the optimal sigma, then overfitting destroys uniformness",
		fmt.Sprintf("paper reports min variance < 2e-5 on their (much larger) control sets; measured %.3g on %d control points", bestVar, len(control[term])))
	return res, nil
}

// bestCalibratedTerm picks the term maximizing the smaller of its
// train/control sample sizes (a scale-independent choice) and returns
// it with that size. Ties go to the lowest TermID, so the figure's
// term does not depend on map order.
func bestCalibratedTerm(train, control map[corpus.TermID][]float64) (term corpus.TermID, best int) {
	for t, tr := range train {
		n := min(len(tr), len(control[t]))
		if n > best || (n == best && n > 0 && t < term) {
			best, term = n, t
		}
	}
	return term, best
}

// linspace returns n evenly spaced values over [lo, hi].
func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// trainRange returns the min and max of a sample.
func trainRange(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
