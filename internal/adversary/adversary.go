// Package adversary is the paper's adversary model (Sections 4.1 and
// 6.2): it builds the systems she attacks, gives her a background
// view of each, and measures three attacks as numbers.
//
//  1. List composition (CompositionAttack): a compromised index
//     server tries to "undo the posting list merging", picking the
//     pair of candidate terms whose mixture best explains a two-term
//     list's visible ranking values.
//  2. Element attribution (ElementAttack, over Attribute): she
//     attributes each element of a merged list to a term by maximum
//     posterior, from per-term score statistics in her background
//     knowledge, separately for the RSTF's training documents and
//     the rest.
//  3. Request count (ProbeRequestCounts, over RequestCountAttack): an
//     observer of the query stream counts the requests a top-k query
//     against a merged list takes and guesses the queried term.
//
// Each reports accuracy against ground truth beside the prior-only
// guesser's, and attribution reports the probability amplification of
// Definition 1 (Amplification), so r-confidentiality is checkable: with
// the RSTF the mean stays near the prior and below r, with raw scores
// it grows. TestRConfidentiality holds that claim at r ∈ {2, 8, 32}.
package adversary

import (
	"math"

	"zerberr/internal/corpus"
)

// Background is the adversary's statistical knowledge: per-term
// histograms of the server-visible ranking value, estimated from a
// corpus she controls (e.g. public documents or the published training
// statistics). Values are assumed to lie in [lo, hi].
type Background struct {
	lo, hi float64
	bins   int
	hist   map[corpus.TermID][]float64 // normalized densities per term
}

// NewBackground builds per-term histograms with the given bin count
// over [lo, hi]. Laplace smoothing keeps likelihoods finite for empty
// bins.
func NewBackground(scores map[corpus.TermID][]float64, bins int, lo, hi float64) *Background {
	if bins <= 0 {
		bins = 64
	}
	if hi <= lo {
		hi = lo + 1
	}
	b := &Background{lo: lo, hi: hi, bins: bins, hist: make(map[corpus.TermID][]float64, len(scores))}
	for t, xs := range scores {
		counts := make([]float64, bins)
		for _, x := range xs {
			counts[b.bin(x)]++
		}
		// Laplace smoothing and normalization to densities.
		total := float64(len(xs)) + float64(bins)
		for i := range counts {
			counts[i] = (counts[i] + 1) / total
		}
		b.hist[t] = counts
	}
	return b
}

func (b *Background) bin(x float64) int {
	i := int(float64(b.bins) * (x - b.lo) / (b.hi - b.lo))
	if i < 0 {
		i = 0
	}
	if i >= b.bins {
		i = b.bins - 1
	}
	return i
}

// Likelihood returns P(value | term) under the background model;
// terms without background mass get a uniform density.
func (b *Background) Likelihood(t corpus.TermID, x float64) float64 {
	h, ok := b.hist[t]
	if !ok {
		return 1 / float64(b.bins)
	}
	return h[b.bin(x)]
}

// Attribution is the outcome of the score-distribution attack on one
// merged list.
type Attribution struct {
	// Guess is the maximum-posterior term per element.
	Guess []corpus.TermID
	// Posterior holds, per element, the posterior probability of each
	// candidate term (indexed as in Candidates).
	Posterior [][]float64
	// Candidates echoes the candidate term order.
	Candidates []corpus.TermID
}

// Attribute runs the Bayesian attribution: for each observed ranking
// value, posterior(t) ∝ prior(t) × P(value | t). prior is typically
// p_t normalized within the merged list (Definition 2's view).
func Attribute(observed []float64, candidates []corpus.TermID, prior map[corpus.TermID]float64, bg *Background) Attribution {
	att := Attribution{
		Guess:      make([]corpus.TermID, len(observed)),
		Posterior:  make([][]float64, len(observed)),
		Candidates: append([]corpus.TermID(nil), candidates...),
	}
	for i, x := range observed {
		post := make([]float64, len(candidates))
		sum := 0.0
		for j, t := range candidates {
			p := prior[t] * bg.Likelihood(t, x)
			post[j] = p
			sum += p
		}
		if sum <= 0 {
			// Degenerate: fall back to the prior itself.
			for j, t := range candidates {
				post[j] = prior[t]
				sum += prior[t]
			}
		}
		best := 0
		for j := range post {
			post[j] /= sum
			if post[j] > post[best] {
				best = j
			}
		}
		att.Posterior[i] = post
		att.Guess[i] = candidates[best]
	}
	return att
}

// Accuracy returns the fraction of correctly attributed elements.
func Accuracy(guess, truth []corpus.TermID) float64 {
	if len(guess) == 0 || len(guess) != len(truth) {
		return 0
	}
	hit := 0
	for i := range guess {
		if guess[i] == truth[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(guess))
}

// PriorAccuracy returns the accuracy of the best prior-only guesser
// (always the most probable term, the smallest ID among ties), the
// baseline any attack must beat to have learned from the index.
func PriorAccuracy(truth []corpus.TermID, prior map[corpus.TermID]float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	var best corpus.TermID
	bestP := math.Inf(-1)
	for t, p := range prior {
		if p > bestP || (p == bestP && t < best) {
			best, bestP = t, p
		}
	}
	hit := 0
	for _, t := range truth {
		if t == best {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// AmplificationStats summarizes posterior/prior ratios over elements:
// the empirical Definition 1 quantity for facts of the form "element i
// belongs to term t".
type AmplificationStats struct {
	// Mean and Max are over the true term of each element:
	// posterior_i(truth_i) / prior(truth_i).
	Mean, Max float64
}

// Amplification measures how much the index raised the adversary's
// confidence in the true attribution relative to her prior.
func Amplification(att Attribution, truth []corpus.TermID, prior map[corpus.TermID]float64) AmplificationStats {
	idx := make(map[corpus.TermID]int, len(att.Candidates))
	for j, t := range att.Candidates {
		idx[t] = j
	}
	var sum, max float64
	n := 0
	for i, t := range truth {
		j, ok := idx[t]
		if !ok || prior[t] <= 0 {
			continue
		}
		ratio := att.Posterior[i][j] / prior[t]
		sum += ratio
		if ratio > max {
			max = ratio
		}
		n++
	}
	if n == 0 {
		return AmplificationStats{}
	}
	return AmplificationStats{Mean: sum / float64(n), Max: max}
}

// RequestCountAttack models threat 2 of Section 4.1: the adversary
// observes how many responses a top-k query against a merged list
// consumed and guesses the queried term by maximum posterior,
// combining her prior with a count-match likelihood (a unit of
// expected-count mismatch costs countPenalty nats). When every merged
// term has the same expected count — BFM's design goal — the rule
// degenerates to the prior guesser, so the attack can never do worse
// than the baseline in expectation.
func RequestCountAttack(observed float64, expected, prior map[corpus.TermID]float64) corpus.TermID {
	const countPenalty = 3.0
	var best corpus.TermID
	bestScore := math.Inf(-1)
	first := true
	for t, e := range expected {
		p := prior[t]
		if p <= 0 {
			p = 1e-12
		}
		score := math.Log(p) - countPenalty*math.Abs(e-observed)
		if score > bestScore || (score == bestScore && (first || t < best)) {
			best, bestScore = t, score
			first = false
		}
	}
	return best
}
