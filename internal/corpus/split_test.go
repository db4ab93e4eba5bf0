package corpus

import (
	"math"
	"testing"
)

func TestNewSplitPartitions(t *testing.T) {
	c := Generate(smallProfile(), 20)
	s := NewSplit(c, 0.3, 99)
	total := len(s.Train) + len(s.Control) + len(s.Rest)
	if total != c.NumDocs() {
		t.Fatalf("split covers %d docs, corpus has %d", total, c.NumDocs())
	}
	seen := make(map[DocID]bool)
	for _, set := range [][]DocID{s.Train, s.Control, s.Rest} {
		for _, id := range set {
			if seen[id] {
				t.Fatalf("doc %d in two split sets", id)
			}
			seen[id] = true
		}
	}
	wantSample := int(0.3 * float64(c.NumDocs()))
	gotSample := len(s.Train) + len(s.Control)
	if gotSample != wantSample {
		t.Fatalf("sample = %d docs, want %d", gotSample, wantSample)
	}
	wantControl := int(0.33 * float64(wantSample))
	if len(s.Control) != wantControl {
		t.Fatalf("control = %d docs, want %d", len(s.Control), wantControl)
	}
}

func TestNewSplitDeterministic(t *testing.T) {
	c := Generate(smallProfile(), 21)
	a := NewSplit(c, 0.3, 7)
	b := NewSplit(c, 0.3, 7)
	if len(a.Train) != len(b.Train) {
		t.Fatal("split sizes differ")
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("split contents differ between runs")
		}
	}
}

func TestNewSplitClampsFractions(t *testing.T) {
	c := Generate(smallProfile(), 22)
	s := NewSplit(c, 1.5, 1)
	if len(s.Rest) != 0 {
		t.Fatalf("sampleFrac>1 should consume all docs, rest=%d", len(s.Rest))
	}
	if want := int(controlFrac * float64(c.NumDocs())); len(s.Control) != want {
		t.Fatalf("control = %d docs, want %d", len(s.Control), want)
	}
	if s := NewSplit(c, -0.2, 1); len(s.Train)+len(s.Control) != 0 {
		t.Fatalf("sampleFrac<0 should give an empty sample, got %d docs", len(s.Train)+len(s.Control))
	}
}

func TestTrainingScores(t *testing.T) {
	c := Generate(smallProfile(), 23)
	s := NewSplit(c, 0.3, 2)
	scores := TrainingScores(c, s.Train)
	if len(scores) == 0 {
		t.Fatal("no training scores extracted")
	}
	for term, vals := range scores {
		if len(vals) == 0 {
			t.Fatalf("term %d has empty score list", term)
		}
		for _, v := range vals {
			if v <= 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("term %d: score %v outside (0,1]", term, v)
			}
		}
	}
	// Spot-check one document's contribution.
	d := c.Doc(s.Train[0])
	for term, tf := range d.TF {
		want := float64(tf) / float64(d.Length)
		found := false
		for _, v := range scores[term] {
			if v == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("term %d: expected score %v from doc %d missing", term, want, d.ID)
		}
	}
}

func TestIngest(t *testing.T) {
	docs := []RawDoc{
		{Text: "alpha beta beta gamma", Group: 0},
		{Text: "beta delta", Group: 1},
	}
	c := Ingest(docs)
	if c.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", c.NumDocs())
	}
	if c.Groups != 2 {
		t.Fatalf("Groups = %d, want 2", c.Groups)
	}
	id := TermID(1) // IDs follow first appearance: alpha 0, beta 1
	if c.Term(id) != "beta" {
		t.Fatalf("term %d is %q, want beta", id, c.Term(id))
	}
	if got := c.DF(id); got != 2 {
		t.Fatalf("DF(beta) = %d, want 2", got)
	}
	d0 := c.Doc(0)
	if d0.TF[id] != 2 || d0.Length != 4 {
		t.Fatalf("doc 0: tf=%d len=%d", d0.TF[id], d0.Length)
	}
	if got := c.Term(id); got != "beta" {
		t.Fatalf("Term = %q", got)
	}
}

func TestIngestEmpty(t *testing.T) {
	c := Ingest(nil)
	if c.NumDocs() != 0 || c.VocabSize != 0 {
		t.Fatal("empty ingest should give empty corpus")
	}
}
