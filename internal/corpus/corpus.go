// Package corpus models document collections: the synthetic generators
// that stand in for the paper's Stud IP and Open Directory Project
// data sets, train/control splits for RSTF calibration, and per-term
// statistics (document frequency, term-frequency distributions) that
// the experiments in Figures 4, 5 and 9 are built on.
package corpus

import (
	"fmt"
	"sort"
	"sync"
)

// DocID identifies a document within a corpus.
type DocID uint32

// TermID identifies a term within a corpus vocabulary. IDs are dense:
// 0..VocabSize-1, ordered by the generator's global frequency rank
// (rank 0 is the most frequent term by construction in synthetic
// corpora; ingested corpora use insertion order).
type TermID uint32

// Document is a bag-of-words document with a group (collaboration
// group / topic) assignment used for access control.
type Document struct {
	ID     DocID
	Group  int
	Length int // |d|: total token count, the Eq. 4 normalizer
	TF     map[TermID]int
}

// Posting is one (document, frequency) observation for a term.
type Posting struct {
	Doc    DocID
	TF     int
	DocLen int
}

// NormTF returns the posting's Eq. 4 relevance score.
func (p Posting) NormTF() float64 {
	if p.DocLen == 0 {
		return 0
	}
	return float64(p.TF) / float64(p.DocLen)
}

// Corpus is an immutable document collection with lazily built
// per-term statistics.
type Corpus struct {
	Docs      []*Document
	VocabSize int
	Groups    int

	// names maps TermID -> string; may be nil for synthetic corpora,
	// in which case Term() synthesizes a stable name.
	names []string

	invertOnce sync.Once
	inverted   [][]Posting
	df         []int
}

// NumDocs returns |D|.
func (c *Corpus) NumDocs() int { return len(c.Docs) }

// Doc returns the document with the given ID, or nil if out of range.
func (c *Corpus) Doc(id DocID) *Document {
	if int(id) >= len(c.Docs) {
		return nil
	}
	return c.Docs[id]
}

// Term returns the display name of a term.
func (c *Corpus) Term(t TermID) string {
	if c.names != nil && int(t) < len(c.names) {
		return c.names[t]
	}
	return fmt.Sprintf("term%06d", t)
}

// buildInverted constructs the per-term posting views once.
func (c *Corpus) buildInverted() {
	c.invertOnce.Do(func() {
		c.inverted = make([][]Posting, c.VocabSize)
		c.df = make([]int, c.VocabSize)
		for _, d := range c.Docs {
			for t, tf := range d.TF {
				c.inverted[t] = append(c.inverted[t], Posting{Doc: d.ID, TF: tf, DocLen: d.Length})
				c.df[t]++
			}
		}
		for _, ps := range c.inverted {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Doc < ps[j].Doc })
		}
	})
}

// DF returns the document frequency n_d(t): the number of documents
// containing t.
func (c *Corpus) DF(t TermID) int {
	c.buildInverted()
	if int(t) >= len(c.df) {
		return 0
	}
	return c.df[t]
}

// PT returns p_t, the probability of occurrence of term t in the
// corpus, represented by its normalized document frequency
// df(t)/|D| (Definition 2 of the paper).
func (c *Corpus) PT(t TermID) float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	return float64(c.DF(t)) / float64(len(c.Docs))
}

// Postings returns the (doc, tf, doclen) observations of term t,
// ordered by document ID. The returned slice is shared; callers must
// not modify it.
func (c *Corpus) Postings(t TermID) []Posting {
	c.buildInverted()
	if int(t) >= len(c.inverted) {
		return nil
	}
	return c.inverted[t]
}

// TFValues returns the raw term-frequency values of t across all
// documents containing it (the Figure 4 distribution).
func (c *Corpus) TFValues(t TermID) []int {
	ps := c.Postings(t)
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.TF
	}
	return out
}

// NormTFValues returns the normalized term-frequency values
// (Eq. 4 relevance scores) of t across all documents containing it
// (the Figure 5 distribution).
func (c *Corpus) NormTFValues(t TermID) []float64 {
	ps := c.Postings(t)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.NormTF()
	}
	return out
}

// TermsByDF returns all term IDs with DF > 0 sorted by decreasing
// document frequency (ties broken by TermID for determinism).
func (c *Corpus) TermsByDF() []TermID {
	c.buildInverted()
	terms := make([]TermID, 0, c.VocabSize)
	for t := 0; t < c.VocabSize; t++ {
		if c.df[t] > 0 {
			terms = append(terms, TermID(t))
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if c.df[terms[i]] != c.df[terms[j]] {
			return c.df[terms[i]] > c.df[terms[j]]
		}
		return terms[i] < terms[j]
	})
	return terms
}

// DistinctTerms returns the number of terms with DF > 0.
func (c *Corpus) DistinctTerms() int {
	c.buildInverted()
	n := 0
	for _, d := range c.df {
		if d > 0 {
			n++
		}
	}
	return n
}
