package experiments

import (
	"fmt"
	"math"

	"zerberr/internal/adversary"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/rstf"
	"zerberr/internal/stats"
)

// Ablations is extension experiment Ext-C: it isolates the design
// choices DESIGN.md calls out.
//
//	(a) transform: Gaussian-sum RSTF vs exact-ECDF vs identity —
//	    uniformness of the TRS each produces on held-out documents;
//	(b) merge strategy: BFM vs random — within-list spread of expected
//	    follow-up counts (the request-count leak surface);
//	(c) codec: wire size of the authenticated AES-GCM codec vs the
//	    paper's 64-bit compact codec.
func Ablations(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// (a) Transform quality on the held-out Rest split.
	train := corpus.TrainingScores(sys.Corpus, sys.Split.Train)
	eval := corpus.TrainingScores(sys.Corpus, sys.Split.Rest)
	const minSamples = 50
	var rstfVars, ecdfVars, rawVars []float64
	for t, scores := range eval {
		f := sys.Store.Get(t)
		if f == nil || len(scores) < minSamples {
			continue
		}
		ec, err := rstf.NewECDFTransform(train[t])
		if err != nil {
			continue
		}
		a := make([]float64, len(scores))
		b := make([]float64, len(scores))
		for i, x := range scores {
			a[i] = f.Transform(x)
			b[i] = ec.Transform(x)
		}
		rstfVars = append(rstfVars, stats.VarianceFromUniform(a))
		ecdfVars = append(ecdfVars, stats.VarianceFromUniform(b))
		rawVars = append(rawVars, stats.VarianceFromUniform(scores))
	}
	if len(rstfVars) == 0 {
		return nil, fmt.Errorf("ablation: no terms with %d+ held-out samples", minSamples)
	}
	// The paper's named future work: direct sigma estimation instead of
	// cross-validation.
	var directVars []float64
	for t, scores := range eval {
		if sys.Store.Get(t) == nil || len(scores) < minSamples {
			continue
		}
		f, err := rstf.New(train[t], rstf.DirectSigma(train[t]))
		if err != nil {
			continue
		}
		a := make([]float64, len(scores))
		for i, x := range scores {
			a[i] = f.Transform(x)
		}
		directVars = append(directVars, stats.VarianceFromUniform(a))
	}
	res.Headers = []string{"ablation", "variant", "metric", "value"}
	res.Rows = append(res.Rows,
		[]interface{}{"transform", "Gaussian-sum RSTF (cross-validated sigma)", "mean TRS variance vs uniform", stats.Mean(rstfVars)},
		[]interface{}{"transform", "Gaussian-sum RSTF (direct sigma)", "mean TRS variance vs uniform", stats.Mean(directVars)},
		[]interface{}{"transform", "exact ECDF", "mean TRS variance vs uniform", stats.Mean(ecdfVars)},
		[]interface{}{"transform", "identity (raw scores)", "mean TRS variance vs uniform", stats.Mean(rawVars)},
	)

	// (b) Merge strategy: spread of expected request counts per list.
	bfmSpread := requestSpread(sys.Corpus, func(t corpus.TermID) (uint32, bool) {
		l, ok := sys.Plan.ListOf(t)
		return uint32(l), ok
	}, sys.Plan.AllTerms())
	// Random merge on the same term statistics.
	randPlanSys, err := adversary.System(adversary.Corpus(e.Seed), e.Seed, 4, false, true, 0)
	if err != nil {
		return nil, err
	}
	randSpread := requestSpread(randPlanSys.Corpus, func(t corpus.TermID) (uint32, bool) {
		l, ok := randPlanSys.Plan.ListOf(t)
		return uint32(l), ok
	}, randPlanSys.Plan.AllTerms())
	res.Rows = append(res.Rows,
		[]interface{}{"merge", "BFM", "mean within-list df ratio (max/min)", bfmSpread},
		[]interface{}{"merge", "random", "mean within-list df ratio (max/min)", randSpread},
	)

	// (c) Codec wire sizes.
	gcm := crypt.GCMCodec{}
	compact := crypt.Compact64Codec{}
	res.Rows = append(res.Rows,
		[]interface{}{"codec", gcm.Name(), "bytes per sealed element", float64(gcm.WireSize())},
		[]interface{}{"codec", compact.Name(), "bytes per sealed element", float64(compact.WireSize())},
		[]interface{}{"codec", "overhead factor", "gcm/compact", float64(gcm.WireSize()) / float64(compact.WireSize())},
	)

	res.Notes = append(res.Notes,
		"transform: lower variance is better; both RSTF and ECDF uniformize (RSTF generalizes to unseen scores), raw scores do not",
		"direct sigma (plug-in bandwidth rule, the paper's Section 5.1.3 future work) approaches the cross-validated optimum without the expensive search",
		"merge: a within-list df ratio near 1 means merged terms need similar follow-up counts (BFM's goal); random merging mixes frequencies by orders of magnitude",
		"codec: authenticated encryption costs 5.5× the paper's 64-bit elements — the integrity/bandwidth trade a deployment must choose")
	return res, nil
}

// requestSpread computes the mean, over multi-term merged lists, of
// the max/min document-frequency ratio among the list's terms — a
// direct proxy for how distinguishable their follow-up counts are.
func requestSpread(c *corpus.Corpus, listOf func(corpus.TermID) (uint32, bool), terms []corpus.TermID) float64 {
	byList := make(map[uint32][]int)
	for _, t := range terms {
		if l, ok := listOf(t); ok {
			if df := c.DF(t); df > 0 {
				byList[l] = append(byList[l], df)
			}
		}
	}
	var sum float64
	n := 0
	for _, dfs := range byList {
		if len(dfs) < 2 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, df := range dfs {
			lo = math.Min(lo, float64(df))
			hi = math.Max(hi, float64(df))
		}
		sum += hi / lo
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
