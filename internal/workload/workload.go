// Package workload models the query side of the evaluation: a
// synthetic web-search-style query log standing in for the 7M-query
// log of Section 6.1.3 (Zipf-distributed query frequencies, imperfect
// correlation with document frequency, multi-term queries averaging
// 2.4 terms) and the Equation 9 workload cost model.
package workload

import (
	"math"
	"sort"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

// Query is one entry of the log.
type Query struct {
	Terms []corpus.TermID
}

// Log is a generated query workload plus its per-term frequency
// profile.
type Log struct {
	Queries []Query
	// freq counts how often each term occurs across the log.
	freq map[corpus.TermID]int
}

// Config parameterizes the generator.
type Config struct {
	// NumQueries is the log length. The paper's log has 7M queries;
	// experiments default to a laptop-friendly scale.
	NumQueries int
	// MeanTerms is the mean query length (paper: 2.4).
	MeanTerms float64
	// QueryVocab bounds how many distinct terms appear in queries
	// (paper: 135K distinct query terms); zero means a quarter of the
	// corpus vocabulary.
	QueryVocab int
	// ZipfS is the query-popularity exponent (head-heavy; the paper's
	// Figure 10 shows the most frequent queries carrying nearly the
	// whole workload).
	ZipfS float64
	// RankNoise controls the imperfect correlation between document
	// frequency and query frequency: each term's query-popularity rank
	// is its df rank perturbed by a lognormal factor. Zero means 0.35.
	// Larger values decorrelate further ("some frequent terms are
	// rarely queried", Section 5.2 / [15]).
	RankNoise float64
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		NumQueries: 20000,
		MeanTerms:  2.4,
		ZipfS:      1.1,
		RankNoise:  0.35,
	}
}

// Generate builds a deterministic query log against the corpus: terms
// that exist in the collection are queried with Zipf-distributed
// frequencies whose ranking loosely follows document frequency.
func Generate(c *corpus.Corpus, cfg Config, seed uint64) *Log {
	g := stats.NewRNG(seed).Split("workload")
	if cfg.NumQueries <= 0 {
		cfg.NumQueries = DefaultConfig().NumQueries
	}
	if cfg.MeanTerms <= 0 {
		cfg.MeanTerms = 2.4
	}
	if cfg.ZipfS <= 0 {
		cfg.ZipfS = 1.1
	}
	if cfg.RankNoise <= 0 {
		cfg.RankNoise = 0.35
	}
	ts := newTermSampler(c, cfg.QueryVocab, cfg.ZipfS, cfg.RankNoise, g)
	if !ts.ok() {
		return &Log{freq: map[corpus.TermID]int{}}
	}
	log := &Log{
		Queries: make([]Query, cfg.NumQueries),
		freq:    make(map[corpus.TermID]int),
	}
	for i := range log.Queries {
		terms := ts.draw(queryLength(g, cfg.MeanTerms))
		log.Queries[i] = Query{Terms: terms}
		for _, t := range terms {
			log.freq[t]++
		}
	}
	return log
}

// termSampler draws query terms Zipf-distributed over a noisy
// df-derived popularity ranking. It is the shared sampling core of
// Generate (static logs) and Stream (unbounded op streams); both build
// it from their own RNG, so their streams stay independent yet
// per-seed deterministic.
type termSampler struct {
	ranked []corpus.TermID
	zipf   *stats.Zipf
}

// newTermSampler ranks the corpus's queried vocabulary (df order
// perturbed multiplicatively by lognormal noise — the imperfect
// df/query-frequency correlation of Section 5.2) and arms a finite
// Zipf sampler over the ranks. The noise draws consume g in rank
// order, so Generate's output for a given seed is unchanged by the
// factoring.
func newTermSampler(c *corpus.Corpus, queryVocab int, zipfS, rankNoise float64, g *stats.RNG) *termSampler {
	byDF := c.TermsByDF()
	vocab := queryVocab
	if vocab <= 0 {
		vocab = len(byDF) / 4
	}
	if vocab > len(byDF) {
		vocab = len(byDF)
	}
	if vocab == 0 {
		return &termSampler{}
	}
	type ranked struct {
		term corpus.TermID
		key  float64
	}
	rankedTerms := make([]ranked, vocab)
	for i := 0; i < vocab; i++ {
		noisy := float64(i+1) * g.LogNormal(0, rankNoise)
		rankedTerms[i] = ranked{term: byDF[i], key: noisy}
	}
	sort.Slice(rankedTerms, func(i, j int) bool {
		if rankedTerms[i].key != rankedTerms[j].key {
			return rankedTerms[i].key < rankedTerms[j].key
		}
		return rankedTerms[i].term < rankedTerms[j].term
	})
	out := &termSampler{ranked: make([]corpus.TermID, vocab), zipf: stats.NewZipf(g, vocab, zipfS)}
	for i, r := range rankedTerms {
		out.ranked[i] = r.term
	}
	return out
}

// ok reports whether the corpus had any queryable vocabulary.
func (ts *termSampler) ok() bool { return len(ts.ranked) > 0 }

// draw samples n distinct terms (clamped to the queryable vocabulary).
func (ts *termSampler) draw(n int) []corpus.TermID {
	if n > len(ts.ranked) {
		n = len(ts.ranked)
	}
	terms := make([]corpus.TermID, 0, n)
	seen := make(map[corpus.TermID]bool, n)
	for len(terms) < n {
		t := ts.ranked[ts.zipf.Next()]
		if seen[t] {
			continue
		}
		seen[t] = true
		terms = append(terms, t)
	}
	return terms
}

// queryLength draws a positive query length with the given mean:
// 1 + Poisson(mean-1), sampled by inversion.
func queryLength(g *stats.RNG, mean float64) int {
	lambda := mean - 1
	if lambda <= 0 {
		return 1
	}
	// Knuth's algorithm; lambda is small (~1.4).
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.Float64()
		if p <= l {
			return 1 + k
		}
		k++
		if k > 50 {
			return 1 + k
		}
	}
}

// Freq returns how often the term occurs across the log's queries.
func (l *Log) Freq(t corpus.TermID) int { return l.freq[t] }

// TermsByFreq returns the queried terms in decreasing log frequency.
func (l *Log) TermsByFreq() []corpus.TermID {
	out := make([]corpus.TermID, 0, len(l.freq))
	for t := range l.freq {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if l.freq[out[i]] != l.freq[out[j]] {
			return l.freq[out[i]] > l.freq[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// SingleTermStream flattens the log into the per-term query sequence
// Zerber+R actually executes ("a multi-term query as a sequence of
// single-term queries", Section 6.1.3).
func (l *Log) SingleTermStream() []corpus.TermID {
	var out []corpus.TermID
	for _, q := range l.Queries {
		out = append(out, q.Terms...)
	}
	return out
}

// PositionEstimate implements Equation 10/11: the expected number of
// elements to retrieve from a merged list to obtain a term's top-k
// under uniform TRS mixing, k × (Σ_{t'∈L} df(t')) / df(t).
func PositionEstimate(k int, dfTerm int, dfListTotal int) float64 {
	if dfTerm <= 0 {
		return 0
	}
	return float64(k) * float64(dfListTotal) / float64(dfTerm)
}
