package index

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/rank"
)

func doc(id corpus.DocID, group int, terms map[corpus.TermID]int) *corpus.Document {
	n := 0
	for _, tf := range terms {
		n += tf
	}
	return &corpus.Document{ID: id, Group: group, Length: n, TF: terms}
}

func testCorpus() *corpus.Corpus {
	p := corpus.ProfileStudIP()
	p.NumDocs = 250
	p.VocabSize = 2500
	return corpus.Generate(p, 77)
}

func TestPostingListsSorted(t *testing.T) {
	c := testCorpus()
	ix := Build(c)
	for term, list := range ix.lists {
		for i := 1; i < len(list); i++ {
			a, b := list[i-1], list[i]
			if a.NormTF() < b.NormTF() {
				t.Fatalf("term %d: postings unsorted at %d (%v < %v)", term, i, a.NormTF(), b.NormTF())
			}
			if a.NormTF() == b.NormTF() && a.Doc >= b.Doc {
				t.Fatalf("term %d: tie not broken by doc ID at %d", term, i)
			}
		}
	}
}

func TestDFMatchesCorpus(t *testing.T) {
	c := testCorpus()
	ix := Build(c)
	for term := corpus.TermID(0); term < 200; term++ {
		if got, want := ix.DF(term), c.DF(term); got != want {
			t.Fatalf("term %d: index DF %d, corpus DF %d", term, got, want)
		}
	}
	if ix.numDocs != c.NumDocs() {
		t.Fatalf("numDocs %d, want %d", ix.numDocs, c.NumDocs())
	}
}

func TestTopKIsPrefixAndCorrect(t *testing.T) {
	c := testCorpus()
	ix := Build(c)
	term := c.TermsByDF()[3]
	k := 10
	got := ix.TopK(term, k)
	if len(got) != k {
		t.Fatalf("TopK returned %d results, want %d", len(got), k)
	}
	// Against naive: rank all docs containing the term by NormTF.
	type pair struct {
		doc   corpus.DocID
		score float64
	}
	var all []pair
	for _, p := range c.Postings(term) {
		all = append(all, pair{p.Doc, p.NormTF()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].doc < all[j].doc
	})
	for i := 0; i < k; i++ {
		if got[i].Doc != all[i].doc || math.Abs(got[i].Score-all[i].score) > 1e-12 {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], all[i])
		}
	}
}

func TestTopKShortList(t *testing.T) {
	ix := New()
	ix.Add(doc(1, 0, map[corpus.TermID]int{5: 2}))
	got := ix.TopK(5, 10)
	if len(got) != 1 {
		t.Fatalf("TopK = %v", got)
	}
	if got2 := ix.TopK(999, 10); len(got2) != 0 {
		t.Fatalf("TopK of absent term = %v", got2)
	}
}

func TestIncrementalAddMatchesBuild(t *testing.T) {
	c := testCorpus()
	built := Build(c)
	incr := New()
	// Add in a scrambled order; sorted lists must come out identical.
	order := make([]int, c.NumDocs())
	for i := range order {
		order[i] = (i*7 + 3) % c.NumDocs()
	}
	seen := make(map[int]bool)
	for _, i := range order {
		if !seen[i] {
			seen[i] = true
			incr.Add(c.Docs[i])
		}
	}
	for i := range order {
		if !seen[i] {
			incr.Add(c.Docs[i])
		}
	}
	if len(built.lists) != len(incr.lists) {
		t.Fatal("term sets differ")
	}
	for term := range built.lists {
		if !reflect.DeepEqual(built.Postings(term), incr.Postings(term)) {
			t.Fatalf("term %d: lists differ between batch and incremental build", term)
		}
	}
}

func TestSearchMultiTermTFIDF(t *testing.T) {
	ix := New()
	ix.Add(doc(1, 0, map[corpus.TermID]int{10: 4, 11: 1})) // len 5
	ix.Add(doc(2, 0, map[corpus.TermID]int{10: 1}))        // len 1
	ix.Add(doc(3, 0, map[corpus.TermID]int{11: 3, 12: 3})) // len 6
	got := ix.Search([]corpus.TermID{10, 11}, 3, nil)
	if len(got) != 3 {
		t.Fatalf("Search returned %d results", len(got))
	}
	idf10 := rank.IDF(3, 2)
	idf11 := rank.IDF(3, 2)
	want := map[corpus.DocID]float64{
		1: 0.8*idf10 + 0.2*idf11,
		2: 1.0 * idf10,
		3: 0.5 * idf11,
	}
	for _, r := range got {
		if math.Abs(r.Score-want[r.Doc]) > 1e-12 {
			t.Fatalf("doc %d score %v, want %v", r.Doc, r.Score, want[r.Doc])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("Search results not sorted")
		}
	}
}

func TestSearchNormTFScorer(t *testing.T) {
	ix := New()
	ix.Add(doc(1, 0, map[corpus.TermID]int{10: 1, 11: 1}))
	ix.Add(doc(2, 0, map[corpus.TermID]int{10: 2}))
	got := ix.Search([]corpus.TermID{10}, 2, rank.NormTFScorer{})
	if got[0].Doc != 2 || got[0].Score != 1.0 {
		t.Fatalf("got %+v", got)
	}
}

func TestZeroValueIndexUsable(t *testing.T) {
	var ix Index
	ix.Add(doc(1, 0, map[corpus.TermID]int{2: 1}))
	if ix.DF(2) != 1 {
		t.Fatal("zero-value Index not usable after Add")
	}
}
