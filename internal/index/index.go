// Package index implements the ordinary inverted index of Figure 1:
// the non-confidential baseline that Zerber+R is measured against.
// Posting lists keep their elements sorted by relevance score so the
// top-k results of a term are a prefix of its list, exactly the
// pruning property the paper's introduction describes. The index lives
// in memory only; it has no file format.
package index

import (
	"sort"

	"zerberr/internal/corpus"
	"zerberr/internal/rank"
)

// Posting is one element of a posting list: a document reference plus
// the raw statistics its relevance score derives from.
type Posting struct {
	Doc    corpus.DocID
	TF     uint32
	DocLen uint32
}

// NormTF returns the posting's Equation 4 relevance score.
func (p Posting) NormTF() float64 { return rank.NormTF(int(p.TF), int(p.DocLen)) }

// postingLess orders postings by descending score, breaking ties by
// ascending document ID so lists are deterministic.
func postingLess(a, b Posting) bool {
	sa, sb := a.NormTF(), b.NormTF()
	if sa != sb {
		return sa > sb
	}
	return a.Doc < b.Doc
}

// Index is an in-memory inverted index over bag-of-words documents.
// The zero value is empty and ready to use. Index is not safe for
// concurrent mutation; concurrent readers are fine once built.
type Index struct {
	lists   map[corpus.TermID][]Posting
	numDocs int
}

// New returns an empty index.
func New() *Index {
	return &Index{lists: make(map[corpus.TermID][]Posting)}
}

// Build indexes every document of the corpus.
func Build(c *corpus.Corpus) *Index {
	ix := New()
	for _, d := range c.Docs {
		ix.Add(d)
	}
	return ix
}

// Add inserts one document, keeping every touched posting list sorted
// by score. Re-adding a document ID is not detected; callers own
// ID uniqueness.
func (ix *Index) Add(d *corpus.Document) {
	if ix.lists == nil {
		ix.lists = make(map[corpus.TermID][]Posting)
	}
	ix.numDocs++
	for t, tf := range d.TF {
		p := Posting{Doc: d.ID, TF: uint32(tf), DocLen: uint32(d.Length)}
		list := ix.lists[t]
		pos := sort.Search(len(list), func(i int) bool { return !postingLess(list[i], p) })
		list = append(list, Posting{})
		copy(list[pos+1:], list[pos:])
		list[pos] = p
		ix.lists[t] = list
	}
}

// DF returns the document frequency of a term.
func (ix *Index) DF(t corpus.TermID) int { return len(ix.lists[t]) }

// Postings returns the score-sorted posting list of t. The returned
// slice is shared; callers must not modify it.
func (ix *Index) Postings(t corpus.TermID) []Posting { return ix.lists[t] }

// TopK answers a single-term top-k query by taking the k-prefix of the
// score-sorted posting list — the ordinary index's pruning shortcut.
func (ix *Index) TopK(t corpus.TermID, k int) []rank.Result {
	list := ix.lists[t]
	if k > len(list) {
		k = len(list)
	}
	out := make([]rank.Result, 0, k)
	for _, p := range list[:k] {
		out = append(out, rank.Result{Doc: p.Doc, Score: p.NormTF()})
	}
	return out
}

// Search answers a multi-term query by accumulating per-term
// contributions under the given scorer (nil means TF×IDF, the
// baseline's native model) and selecting the k best documents.
func (ix *Index) Search(terms []corpus.TermID, k int, scorer rank.Scorer) []rank.Result {
	if scorer == nil {
		scorer = rank.TFIDFScorer{}
	}
	acc := make(map[corpus.DocID]float64)
	for _, t := range terms {
		df := ix.DF(t)
		for _, p := range ix.lists[t] {
			acc[p.Doc] += scorer.Score(int(p.TF), int(p.DocLen), df, ix.numDocs)
		}
	}
	return rank.TopK(acc, k)
}
