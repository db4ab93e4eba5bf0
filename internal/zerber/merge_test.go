package zerber

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

func testTerms(n int, seed uint64) []TermProb {
	g := stats.NewRNG(seed)
	z := stats.NewZipf(g, n, 1.0)
	out := make([]TermProb, n)
	for i := range out {
		// Zipf-ish probabilities scaled to look like document
		// frequencies: head terms near 0.9, tail near 1/n.
		out[i] = TermProb{Term: corpus.TermID(i), P: math.Min(0.95, 200*z.Prob(i))}
	}
	return out
}

func testCorpus() *corpus.Corpus {
	p := corpus.ProfileStudIP()
	p.NumDocs = 300
	p.VocabSize = 3000
	return corpus.Generate(p, 55)
}

func TestBFMSatisfiesDefinition2(t *testing.T) {
	for _, r := range []float64{1.5, 4, 16, 64} {
		plan, err := BFM(testTerms(2000, 1), r)
		if err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("r=%v: %v", r, err)
		}
		for l := 0; l < plan.NumLists(); l++ {
			if mass := plan.ListMass(ListID(l)); mass+1e-9 < 1/r {
				t.Fatalf("r=%v list %d mass %v < 1/r", r, l, mass)
			}
		}
	}
}

func TestBFMCoversAllTerms(t *testing.T) {
	terms := testTerms(500, 2)
	plan, err := BFM(terms, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range terms {
		if _, ok := plan.ListOf(tp.Term); !ok {
			t.Fatalf("term %d not assigned", tp.Term)
		}
	}
	if got := len(plan.AllTerms()); got != len(terms) {
		t.Fatalf("AllTerms has %d entries, want %d", got, len(terms))
	}
}

func TestBFMGroupsSimilarFrequencies(t *testing.T) {
	// BFM lists must be contiguous runs in df order: the max p of list
	// i+1 must not exceed the min p of list i.
	plan, err := BFM(testTerms(2000, 3), 16)
	if err != nil {
		t.Fatal(err)
	}
	prevMin := math.Inf(1)
	for l := 0; l < plan.NumLists(); l++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, term := range plan.Terms(ListID(l)) {
			p := plan.P(term)
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
		if hi > prevMin+1e-12 {
			t.Fatalf("list %d max p %v exceeds previous list min %v: not frequency-contiguous", l, hi, prevMin)
		}
		prevMin = lo
	}
}

func TestBFMFrequentTermsAloneInList(t *testing.T) {
	// A term with p >= 1/r should close its own list immediately.
	terms := []TermProb{{0, 0.9}, {1, 0.8}, {2, 0.05}, {3, 0.04}, {4, 0.5}}
	plan, err := BFM(terms, 2) // need mass 0.5
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []corpus.TermID{0, 1} {
		l, _ := plan.ListOf(head)
		if got := len(plan.Terms(l)); got != 1 {
			t.Fatalf("head term %d shares a list with %d terms", head, got-1)
		}
	}
	// Term 4 closes its own run but then absorbs the underweight tail
	// (terms 2 and 3), so it ends up with exactly those companions.
	l4, _ := plan.ListOf(4)
	if got := len(plan.Terms(l4)); got != 3 {
		t.Fatalf("last list has %d terms, want 3 (term 4 + folded tail)", got)
	}
}

func TestBFMFoldsUnderweightTail(t *testing.T) {
	terms := []TermProb{{0, 0.6}, {1, 0.6}, {2, 0.01}}
	plan, err := BFM(terms, 2) // need 0.5; term 2 alone would violate
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	l2, _ := plan.ListOf(2)
	if len(plan.Terms(l2)) < 2 {
		t.Fatal("underweight tail term got its own list")
	}
}

func TestBFMInfeasible(t *testing.T) {
	terms := []TermProb{{0, 0.01}, {1, 0.01}}
	if _, err := BFM(terms, 2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := BFM(terms, -1); err == nil {
		t.Fatal("negative r accepted")
	}
}

func TestBFMTargetBoundsListCount(t *testing.T) {
	terms := testTerms(3000, 4)
	plan, err := BFMTarget(terms, 64, 40)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLists() > 40 {
		t.Fatalf("got %d lists, want <= 40", plan.NumLists())
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := BFMTarget(terms, 64, 0); err == nil {
		t.Fatal("maxLists=0 accepted")
	}
}

func TestRandomMergeSatisfiesDefinition2(t *testing.T) {
	plan, err := RandomMerge(testTerms(2000, 5), 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMergeMixesFrequencies(t *testing.T) {
	// Unlike BFM, random merging should produce at least one list
	// whose term probabilities span a wide ratio.
	plan, err := RandomMerge(testTerms(2000, 6), 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	mixed := false
	for l := 0; l < plan.NumLists(); l++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, term := range plan.Terms(ListID(l)) {
			p := plan.P(term)
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
		if len(plan.Terms(ListID(l))) > 1 && hi/lo > 20 {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Fatal("random merge produced only frequency-homogeneous lists")
	}
}

func TestRandomMergeDeterministicPerSeed(t *testing.T) {
	terms := testTerms(300, 7)
	a, err := RandomMerge(terms, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomMerge(terms, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range terms {
		la, _ := a.ListOf(tp.Term)
		lb, _ := b.ListOf(tp.Term)
		if la != lb {
			t.Fatal("same seed produced different plans")
		}
	}
}

func TestFromCorpusSortedAndComplete(t *testing.T) {
	c := testCorpus()
	tps := FromCorpus(c)
	if len(tps) != c.DistinctTerms() {
		t.Fatalf("FromCorpus has %d terms, corpus has %d distinct", len(tps), c.DistinctTerms())
	}
	for i := 1; i < len(tps); i++ {
		if tps[i].P > tps[i-1].P {
			t.Fatal("FromCorpus not sorted by decreasing probability")
		}
	}
	for _, tp := range tps[:50] {
		if math.Abs(tp.P-c.PT(tp.Term)) > 1e-12 {
			t.Fatalf("term %d: p=%v, corpus PT=%v", tp.Term, tp.P, c.PT(tp.Term))
		}
	}
}

func TestEndToEndCorpusMerge(t *testing.T) {
	c := testCorpus()
	plan, err := BFM(FromCorpus(c), 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.NumLists() < 2 {
		t.Fatalf("only %d merged lists for a 3000-term corpus", plan.NumLists())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	plan, err := BFM(testTerms(100, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: shrink a recorded probability so a list underflows.
	victim := plan.lists[len(plan.lists)-1][0]
	plan.p[victim] = 0
	if err := plan.Verify(); err == nil {
		t.Fatal("Verify accepted an underweight list")
	}
}

func TestVerifyCatchesDuplicateAssignment(t *testing.T) {
	plan, err := BFM(testTerms(100, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumLists() < 2 {
		t.Skip("need two lists")
	}
	dup := plan.lists[0][0]
	plan.lists[1] = append(plan.lists[1], dup)
	if err := plan.Verify(); err == nil {
		t.Fatal("Verify accepted a duplicated term")
	}
}

func TestPlanSerializeRoundTrip(t *testing.T) {
	plan, err := BFM(FromCorpus(testCorpus()), 32)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := plan.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d, buffer %d", n, buf.Len())
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLists() != plan.NumLists() || got.R() != plan.R() {
		t.Fatal("plan shape changed in round trip")
	}
	for _, term := range plan.AllTerms() {
		la, _ := plan.ListOf(term)
		lb, ok := got.ListOf(term)
		if !ok || la != lb {
			t.Fatalf("term %d: assignment changed in round trip", term)
		}
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(bytes.NewReader([]byte("junk plan bytes"))); !errors.Is(err, ErrBadPlanFormat) {
		t.Fatalf("err = %v, want ErrBadPlanFormat", err)
	}
}

// TestReadPlanRefusesTermPast32Bits: term IDs are 32-bit, so a plan
// naming term 2³²+7 is malformed rather than a plan naming term 7.
// (FuzzReadPlan's seed_term_past_32_bits holds the same bytes.)
func TestReadPlanRefusesTermPast32Bits(t *testing.T) {
	data := binary.BigEndian.AppendUint64([]byte(planMagic), math.Float64bits(2))
	data = binary.AppendUvarint(data, 1) // lists
	data = binary.AppendUvarint(data, 1) // terms of list 0
	data = binary.AppendUvarint(data, 1<<32+7)
	data = binary.BigEndian.AppendUint64(data, math.Float64bits(1))
	m, err := ReadPlan(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("term 2^32+7 read as %v", m.AllTerms())
	}
	if !errors.Is(err, ErrBadPlanFormat) {
		t.Fatalf("err = %v, want ErrBadPlanFormat", err)
	}
}

func TestReadPlanRejectsTruncated(t *testing.T) {
	plan, err := BFM(testTerms(200, 10), 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 12, buf.Len() / 2, buf.Len() - 2} {
		if _, err := ReadPlan(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestMergeInvariantQuick(t *testing.T) {
	f := func(seed uint64, rRaw uint8, nRaw uint16) bool {
		r := 1.5 + float64(rRaw%40)
		n := 50 + int(nRaw%1000)
		plan, err := BFM(testTerms(n, seed), r)
		if errors.Is(err, ErrInfeasible) {
			return true
		}
		if err != nil {
			return false
		}
		return plan.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
