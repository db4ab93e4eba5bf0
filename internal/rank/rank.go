// Package rank implements the relevance-score calculations of Section
// 3.2: the IDF-free normalized term frequency of Equation 4 that
// Zerber+R stores per posting element, the TF×IDF vector-space scoring
// of Equation 3 used by the plaintext baseline, and top-k selection
// and rank-agreement helpers.
package rank

import (
	"container/heap"
	"math"

	"zerberr/internal/corpus"
)

// Result is one ranked retrieval result.
type Result struct {
	Doc   corpus.DocID
	Score float64
}

// NormTF returns the Equation 4 relevance score rscore(q,d) =
// TF_q / |d|. It returns 0 for an empty document.
func NormTF(tf, docLen int) float64 {
	if docLen == 0 {
		return 0
	}
	return float64(tf) / float64(docLen)
}

// IDF returns the inverse document frequency log(|D| / n_d(t)) used by
// Equation 3. It returns 0 when the term is absent or the collection
// empty, so an unknown term contributes nothing.
func IDF(numDocs, df int) float64 {
	if df <= 0 || numDocs <= 0 {
		return 0
	}
	return math.Log(float64(numDocs) / float64(df))
}

// Scorer computes a per-term, per-document relevance contribution.
type Scorer interface {
	// Score returns the contribution of a term occurring tf times in a
	// document of length docLen, where the term appears in df of the
	// numDocs collection documents.
	Score(tf, docLen, df, numDocs int) float64
}

// NormTFScorer is the confidential scoring model of Equation 4: no
// collection statistics, exact for single-term queries.
type NormTFScorer struct{}

// Score implements Scorer.
func (NormTFScorer) Score(tf, docLen, df, numDocs int) float64 {
	return NormTF(tf, docLen)
}

// TFIDFScorer is the Equation 3 vector-space baseline that leaks
// collection statistics; Zerber+R gives it up for confidentiality.
type TFIDFScorer struct{}

// Score implements Scorer.
func (TFIDFScorer) Score(tf, docLen, df, numDocs int) float64 {
	return NormTF(tf, docLen) * IDF(numDocs, df)
}

// weaker reports whether a ranks below b: lower score, with ties
// broken so that larger DocIDs are weaker (keeping results
// deterministic).
func weaker(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// resultHeap is a min-heap under weaker, so the root is the weakest
// kept result.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return weaker(h[i], h[j]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TopK selects the k highest-scoring documents from the accumulated
// score map, sorted by descending score (ties by ascending DocID).
// k <= 0 or an empty map yields nil.
func TopK(scores map[corpus.DocID]float64, k int) []Result {
	if k <= 0 || len(scores) == 0 {
		return nil
	}
	h := make(resultHeap, 0, k)
	for doc, s := range scores {
		r := Result{Doc: doc, Score: s}
		if len(h) < k {
			heap.Push(&h, r)
		} else if weaker(h[0], r) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	out := make([]Result, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Result)
	}
	return out
}

// Accumulate adds per-term contributions into dst, summing scores per
// document (the Equation 3 outer sum over query terms).
func Accumulate(dst map[corpus.DocID]float64, contributions []Result) {
	for _, r := range contributions {
		dst[r.Doc] += r.Score
	}
}

// Overlap returns |a ∩ b| / k where the intersection is over document
// IDs of the two top-k lists and k is the longer list's length. It is
// the rank-agreement measure used by the multi-term accuracy
// experiment (Ext-A). Two empty lists overlap fully.
func Overlap(a, b []Result) float64 {
	k := len(a)
	if len(b) > k {
		k = len(b)
	}
	if k == 0 {
		return 1
	}
	inA := make(map[corpus.DocID]bool, len(a))
	for _, r := range a {
		inA[r.Doc] = true
	}
	common := 0
	for _, r := range b {
		if inA[r.Doc] {
			common++
		}
	}
	return float64(common) / float64(k)
}
