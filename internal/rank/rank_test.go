package rank

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

func TestNormTF(t *testing.T) {
	if got := NormTF(3, 12); got != 0.25 {
		t.Errorf("NormTF(3,12) = %v, want 0.25", got)
	}
	if got := NormTF(3, 0); got != 0 {
		t.Errorf("NormTF with empty doc = %v, want 0", got)
	}
}

func TestIDF(t *testing.T) {
	if got := IDF(100, 10); math.Abs(got-math.Log(10)) > 1e-12 {
		t.Errorf("IDF(100,10) = %v, want ln(10)", got)
	}
	if got := IDF(100, 0); got != 0 {
		t.Errorf("IDF with df=0 = %v, want 0", got)
	}
	if got := IDF(0, 5); got != 0 {
		t.Errorf("IDF with empty collection = %v, want 0", got)
	}
	if got := IDF(100, 100); got != 0 {
		t.Errorf("IDF of universal term = %v, want 0", got)
	}
}

func TestScorers(t *testing.T) {
	n := NormTFScorer{}
	if got := n.Score(2, 8, 50, 100); got != 0.25 {
		t.Errorf("NormTFScorer = %v, want 0.25", got)
	}
	ti := TFIDFScorer{}
	want := 0.25 * math.Log(2)
	if got := ti.Score(2, 8, 50, 100); math.Abs(got-want) > 1e-12 {
		t.Errorf("TFIDFScorer = %v, want %v", got, want)
	}
}

func TestTopKBasic(t *testing.T) {
	scores := map[corpus.DocID]float64{1: 0.5, 2: 0.9, 3: 0.1, 4: 0.7}
	got := TopK(scores, 2)
	want := []Result{{Doc: 2, Score: 0.9}, {Doc: 4, Score: 0.7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
}

func TestTopKTieBreaksByDocID(t *testing.T) {
	scores := map[corpus.DocID]float64{9: 0.5, 3: 0.5, 7: 0.5}
	got := TopK(scores, 2)
	want := []Result{{Doc: 3, Score: 0.5}, {Doc: 7, Score: 0.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
}

func TestTopKEdge(t *testing.T) {
	if got := TopK(nil, 5); got != nil {
		t.Errorf("TopK(nil) = %v", got)
	}
	if got := TopK(map[corpus.DocID]float64{1: 1}, 0); got != nil {
		t.Errorf("TopK(k=0) = %v", got)
	}
	got := TopK(map[corpus.DocID]float64{1: 1, 2: 2}, 10)
	if len(got) != 2 {
		t.Errorf("TopK with k > n returned %d results", len(got))
	}
}

func TestTopKMatchesNaiveSortQuick(t *testing.T) {
	g := stats.NewRNG(31)
	f := func(seed uint16, kRaw uint8) bool {
		n := 1 + int(seed%200)
		k := 1 + int(kRaw%20)
		scores := make(map[corpus.DocID]float64, n)
		for i := 0; i < n; i++ {
			scores[corpus.DocID(i)] = math.Round(g.Float64()*10) / 10 // force ties
		}
		got := TopK(scores, k)

		type pair struct {
			doc   corpus.DocID
			score float64
		}
		all := make([]pair, 0, n)
		for d, s := range scores {
			all = append(all, pair{d, s})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].score != all[j].score {
				return all[i].score > all[j].score
			}
			return all[i].doc < all[j].doc
		})
		if k > len(all) {
			k = len(all)
		}
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i].Doc != all[i].doc || got[i].Score != all[i].score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulate(t *testing.T) {
	dst := map[corpus.DocID]float64{1: 0.5}
	Accumulate(dst, []Result{{Doc: 1, Score: 0.25}, {Doc: 2, Score: 0.1}})
	if dst[1] != 0.75 || dst[2] != 0.1 {
		t.Fatalf("Accumulate = %v", dst)
	}
}

func TestOverlap(t *testing.T) {
	a := []Result{{Doc: 1}, {Doc: 2}, {Doc: 3}}
	b := []Result{{Doc: 2}, {Doc: 3}, {Doc: 4}}
	if got := Overlap(a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Overlap = %v, want 2/3", got)
	}
	if got := Overlap(a, a); got != 1 {
		t.Errorf("self Overlap = %v, want 1", got)
	}
	if got := Overlap(nil, nil); got != 1 {
		t.Errorf("empty Overlap = %v, want 1", got)
	}
	if got := Overlap(a, nil); got != 0 {
		t.Errorf("disjoint Overlap = %v, want 0", got)
	}
}

func TestOverlapAsymmetricLengths(t *testing.T) {
	a := []Result{{Doc: 1}, {Doc: 2}}
	b := []Result{{Doc: 1}, {Doc: 2}, {Doc: 3}, {Doc: 4}}
	if got := Overlap(a, b); got != 0.5 {
		t.Errorf("Overlap = %v, want 0.5 (normalized by longer list)", got)
	}
}
