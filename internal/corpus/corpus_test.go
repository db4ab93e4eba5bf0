package corpus

import (
	"math"
	"testing"

	"zerberr/internal/stats"
)

func smallProfile() Profile {
	p := ProfileStudIP()
	p.NumDocs = 300
	p.VocabSize = 3000
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallProfile(), 1)
	b := Generate(smallProfile(), 1)
	if a.NumDocs() != b.NumDocs() {
		t.Fatal("doc counts differ")
	}
	for i := range a.Docs {
		da, db := a.Docs[i], b.Docs[i]
		if da.Length != db.Length || da.Group != db.Group || len(da.TF) != len(db.TF) {
			t.Fatalf("doc %d differs between runs", i)
		}
		for term, tf := range da.TF {
			if db.TF[term] != tf {
				t.Fatalf("doc %d term %d: %d vs %d", i, term, tf, db.TF[term])
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(smallProfile(), 1)
	b := Generate(smallProfile(), 2)
	same := 0
	for i := range a.Docs {
		if a.Docs[i].Length == b.Docs[i].Length {
			same++
		}
	}
	if same == len(a.Docs) {
		t.Fatal("different seeds generated identical documents")
	}
}

func TestDocLengthConsistency(t *testing.T) {
	c := Generate(smallProfile(), 3)
	for _, d := range c.Docs {
		sum := 0
		for _, tf := range d.TF {
			sum += tf
		}
		if sum != d.Length {
			t.Fatalf("doc %d: TF sums to %d, Length is %d", d.ID, sum, d.Length)
		}
		if d.Length < smallProfile().MinDocLen || d.Length > smallProfile().MaxDocLen {
			t.Fatalf("doc %d length %d outside clamp", d.ID, d.Length)
		}
	}
}

func TestDFMatchesPostings(t *testing.T) {
	c := Generate(smallProfile(), 4)
	for term := TermID(0); term < 100; term++ {
		if got, want := c.DF(term), len(c.Postings(term)); got != want {
			t.Fatalf("term %d: DF=%d, postings=%d", term, got, want)
		}
	}
}

func TestPTDefinition(t *testing.T) {
	c := Generate(smallProfile(), 5)
	for term := TermID(0); term < 50; term++ {
		want := float64(c.DF(term)) / float64(c.NumDocs())
		if got := c.PT(term); math.Abs(got-want) > 1e-12 {
			t.Fatalf("term %d: PT=%v, want %v", term, got, want)
		}
		if got := c.PT(term); got < 0 || got > 1 {
			t.Fatalf("term %d: PT=%v outside [0,1]", term, got)
		}
	}
}

func TestZipfShapeOfDF(t *testing.T) {
	c := Generate(smallProfile(), 6)
	// Head terms (common ranks) must dominate tail terms.
	headDF := 0
	for term := TermID(0); term < 20; term++ {
		headDF += c.DF(term)
	}
	tailDF := 0
	for term := TermID(2000); term < 2020; term++ {
		tailDF += c.DF(term)
	}
	if headDF <= tailDF*3 {
		t.Fatalf("head DF %d should far exceed tail DF %d", headDF, tailDF)
	}
}

func TestTermsByDFSorted(t *testing.T) {
	c := Generate(smallProfile(), 7)
	terms := c.TermsByDF()
	if len(terms) == 0 {
		t.Fatal("no terms")
	}
	for i := 1; i < len(terms); i++ {
		if c.DF(terms[i]) > c.DF(terms[i-1]) {
			t.Fatalf("TermsByDF not sorted at %d", i)
		}
	}
}

func TestTFValuesPowerLawTail(t *testing.T) {
	p := smallProfile()
	p.NumDocs = 1500
	c := Generate(p, 8)
	term := c.TermsByDF()[0] // most frequent term
	tfs := c.TFValues(term)
	if len(tfs) < 100 {
		t.Skipf("head term only in %d docs", len(tfs))
	}
	counts := stats.FreqCount(tfs)
	xs, ys := stats.LogBin(counts, 1.6)
	// The distribution may have an interior mode (doc-length mixing);
	// the paper's power-law shape refers to the decaying tail, so fit
	// from the modal bin onward.
	mode := 0
	for i, y := range ys {
		if y > ys[mode] {
			mode = i
		}
	}
	fit, err := stats.FitPowerLaw(xs[mode:], ys[mode:])
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope >= 0 {
		t.Fatalf("TF tail slope %v, want negative (decaying)", fit.Slope)
	}
}

func TestNormTFRange(t *testing.T) {
	c := Generate(smallProfile(), 9)
	for term := TermID(0); term < 30; term++ {
		for _, v := range c.NormTFValues(term) {
			if v <= 0 || v > 1 {
				t.Fatalf("term %d: norm TF %v outside (0,1]", term, v)
			}
		}
	}
}

func TestGroupsAssigned(t *testing.T) {
	p := smallProfile()
	p.Topics = 5
	c := Generate(p, 10)
	if c.Groups != 5 {
		t.Fatalf("Groups = %d, want 5", c.Groups)
	}
	docs := make([]int, 5)
	for _, d := range c.Docs {
		docs[d.Group]++
	}
	for g, n := range docs {
		if n == 0 {
			t.Fatalf("group %d is empty", g)
		}
	}
}

func TestTopicAffinityShapesVocabulary(t *testing.T) {
	p := smallProfile()
	p.Topics = 4
	p.TopicAffinity = 0.9
	p.NumDocs = 400
	c := Generate(p, 11)
	// Terms past the common band should concentrate in their home
	// topic: term rank r (r >= CommonRanks) has home topic
	// (r-CommonRanks)%Topics.
	agree, total := 0, 0
	for _, d := range c.Docs {
		for term, tf := range d.TF {
			r := int(term)
			if r < p.CommonRanks {
				continue
			}
			total += tf
			if (r-p.CommonRanks)%p.Topics == d.Group {
				agree += tf
			}
		}
	}
	if total == 0 {
		t.Fatal("no non-common tokens generated")
	}
	frac := float64(agree) / float64(total)
	if frac < 0.6 {
		t.Fatalf("only %.2f of topical tokens in home topic, want > 0.6", frac)
	}
}

func TestScaleClamps(t *testing.T) {
	p := ProfileODP().Scale(0.0001)
	if p.NumDocs < 100 || p.VocabSize < 1000 {
		t.Fatalf("Scale produced %d docs, %d vocab; want clamped minimums", p.NumDocs, p.VocabSize)
	}
	q := ProfileODP().Scale(2)
	if q.NumDocs != 2*ProfileODP().NumDocs {
		t.Fatalf("Scale(2) docs = %d", q.NumDocs)
	}
}

func TestSyntheticTermNames(t *testing.T) {
	c := Generate(smallProfile(), 12)
	if name := c.Term(42); name != "term000042" {
		t.Fatalf("Term(42) = %q, want term000042", name)
	}
}

func TestDocOutOfRange(t *testing.T) {
	c := Generate(smallProfile(), 13)
	if c.Doc(DocID(c.NumDocs())) != nil {
		t.Fatal("Doc out of range should be nil")
	}
}

func TestDistinctTerms(t *testing.T) {
	c := Generate(smallProfile(), 14)
	n := c.DistinctTerms()
	if n <= 0 || n > c.VocabSize {
		t.Fatalf("DistinctTerms = %d, vocab %d", n, c.VocabSize)
	}
}
