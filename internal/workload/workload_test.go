package workload

import (
	"math"
	"testing"

	"zerberr/internal/corpus"
)

func testCorpus(seed uint64) *corpus.Corpus {
	p := corpus.ProfileStudIP()
	p.NumDocs = 300
	p.VocabSize = 3000
	return corpus.Generate(p, seed)
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCorpus(1)
	a := Generate(c, DefaultConfig(), 7)
	b := Generate(c, DefaultConfig(), 7)
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("lengths differ")
	}
	for i := range a.Queries {
		if len(a.Queries[i].Terms) != len(b.Queries[i].Terms) {
			t.Fatalf("query %d differs", i)
		}
		for j := range a.Queries[i].Terms {
			if a.Queries[i].Terms[j] != b.Queries[i].Terms[j] {
				t.Fatalf("query %d term %d differs", i, j)
			}
		}
	}
}

func TestMeanQueryLength(t *testing.T) {
	c := testCorpus(2)
	cfg := DefaultConfig()
	cfg.NumQueries = 20000
	log := Generate(c, cfg, 1)
	total := 0
	for _, q := range log.Queries {
		if len(q.Terms) < 1 {
			t.Fatal("empty query generated")
		}
		total += len(q.Terms)
	}
	mean := float64(total) / float64(len(log.Queries))
	if math.Abs(mean-2.4) > 0.15 {
		t.Fatalf("mean query length %v, want about 2.4", mean)
	}
	freqs := 0
	for _, term := range log.TermsByFreq() {
		freqs += log.Freq(term)
	}
	if total != freqs {
		t.Fatalf("term frequencies sum to %d, counted %d", freqs, total)
	}
}

func TestQueriesUseDistinctTermsWithin(t *testing.T) {
	c := testCorpus(3)
	log := Generate(c, DefaultConfig(), 2)
	for i, q := range log.Queries[:500] {
		seen := map[corpus.TermID]bool{}
		for _, term := range q.Terms {
			if seen[term] {
				t.Fatalf("query %d repeats term %d", i, term)
			}
			seen[term] = true
		}
	}
}

func TestZipfHeadDominatesWorkload(t *testing.T) {
	// Figure 10's premise: the most frequent queries carry nearly the
	// whole workload.
	c := testCorpus(4)
	log := Generate(c, DefaultConfig(), 3)
	terms := log.TermsByFreq()
	if len(terms) < 100 {
		t.Fatalf("only %d distinct query terms", len(terms))
	}
	head := 0
	for _, term := range terms[:len(terms)/10] {
		head += log.Freq(term)
	}
	frac := float64(head) / float64(len(log.SingleTermStream()))
	if frac < 0.6 {
		t.Fatalf("top-10%% of terms carry %v of the workload, want > 0.6", frac)
	}
}

func TestQueryFrequencyCorrelatesWithDF(t *testing.T) {
	// Imperfect but positive correlation between df rank and query
	// frequency (Section 5.2: "document frequencies and query
	// frequencies are correlated, though some frequent terms are
	// rarely queried").
	c := testCorpus(5)
	log := Generate(c, DefaultConfig(), 4)
	byDF := c.TermsByDF()
	headDF := byDF[:200]
	tailStart := len(byDF) / 2
	tailDF := byDF[tailStart : tailStart+200]
	headQ, tailQ := 0, 0
	for i := range headDF {
		headQ += log.Freq(headDF[i])
		tailQ += log.Freq(tailDF[i])
	}
	if headQ <= 2*tailQ {
		t.Fatalf("head-df terms queried %d times, tail-df %d: correlation too weak", headQ, tailQ)
	}
	// But not perfect: at least one head-df term should be rarer in
	// queries than some term far below it in df rank.
	inverted := false
	for i := 0; i < 50 && !inverted; i++ {
		for j := 100; j < 200; j++ {
			if log.Freq(byDF[j]) > log.Freq(byDF[i]) {
				inverted = true
				break
			}
		}
	}
	if !inverted {
		t.Fatal("df rank and query rank identical everywhere: RankNoise had no effect")
	}
}

func TestSingleTermStream(t *testing.T) {
	c := testCorpus(6)
	cfg := DefaultConfig()
	cfg.NumQueries = 100
	log := Generate(c, cfg, 5)
	stream := log.SingleTermStream()
	want := 0
	for _, term := range log.TermsByFreq() {
		want += log.Freq(term)
	}
	if len(stream) != want {
		t.Fatalf("stream has %d terms, want %d", len(stream), want)
	}
}

func TestQueryVocabBound(t *testing.T) {
	c := testCorpus(7)
	cfg := DefaultConfig()
	cfg.QueryVocab = 50
	log := Generate(c, cfg, 6)
	if n := len(log.TermsByFreq()); n > 50 {
		t.Fatalf("log uses %d distinct terms, want <= 50", n)
	}
}

func TestPositionEstimate(t *testing.T) {
	// Eq. 11: k × (Σ df) / df(t).
	if got := PositionEstimate(10, 50, 500); got != 100 {
		t.Fatalf("PositionEstimate = %v, want 100", got)
	}
	if got := PositionEstimate(10, 0, 500); got != 0 {
		t.Fatalf("df=0: %v, want 0", got)
	}
}

func TestGenerateEmptyCorpus(t *testing.T) {
	c := corpus.Ingest(nil, nil)
	log := Generate(c, DefaultConfig(), 1)
	if len(log.Queries) != 0 && len(log.TermsByFreq()) != 0 {
		t.Fatal("empty corpus should give empty log")
	}
}
