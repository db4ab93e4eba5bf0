package zerberr

import (
	"context"
	"math"
	"testing"

	"zerberr/internal/corpus"
	"zerberr/internal/workload"
)

func testSystem(t *testing.T, seed uint64) *System {
	t.Helper()
	p := corpus.ProfileStudIP()
	p.NumDocs = 200
	p.VocabSize = 2000
	c := corpus.Generate(p, seed)
	cfg := DefaultConfig()
	cfg.Seed = seed
	sys, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.IndexAll(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSetupValidation(t *testing.T) {
	if _, err := Setup(nil, DefaultConfig()); err == nil {
		t.Fatal("nil corpus accepted")
	}
	p := corpus.ProfileStudIP()
	p.NumDocs = 100
	p.VocabSize = 1000
	c := corpus.Generate(p, 1)
	cfg := DefaultConfig()
	cfg.R = 0.5
	if _, err := Setup(c, cfg); err == nil {
		t.Fatal("r <= 1 accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys := testSystem(t, 1)
	if sys.Plan.Verify() != nil {
		t.Fatal("plan does not verify")
	}
	if sys.Server.NumElements() == 0 {
		t.Fatal("IndexAll stored nothing")
	}
	cl, err := sys.NewClient("john")
	if err != nil {
		t.Fatal(err)
	}
	term := sys.Corpus.TermsByDF()[3]
	got, stats, err := cl.Search(context.Background(), []corpus.TermID{term}, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Baseline.TopK(term, 10)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d: %v vs %v", i, got[i].Score, want[i].Score)
		}
	}
	if stats.Requests < 1 {
		t.Fatal("no requests recorded")
	}
}

func TestNewClientGroupScoping(t *testing.T) {
	sys := testSystem(t, 2)
	cl, err := sys.NewClient("limited", 0)
	if err != nil {
		t.Fatal(err)
	}
	term := sys.Corpus.TermsByDF()[0]
	got, _, err := cl.Search(context.Background(), []corpus.TermID{term}, sys.Corpus.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if sys.Corpus.Doc(r.Doc).Group != 0 {
			t.Fatalf("group-0 client saw doc of group %d", sys.Corpus.Doc(r.Doc).Group)
		}
	}
	if _, err := sys.NewClient("bad", 9999); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestSkipBaseline(t *testing.T) {
	p := corpus.ProfileStudIP()
	p.NumDocs = 120
	p.VocabSize = 1200
	c := corpus.Generate(p, 3)
	cfg := DefaultConfig()
	cfg.SkipBaseline = true
	sys, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Baseline != nil {
		t.Fatal("baseline built despite SkipBaseline")
	}
}

func TestMaxListsRespected(t *testing.T) {
	p := corpus.ProfileStudIP()
	p.NumDocs = 150
	p.VocabSize = 1500
	c := corpus.Generate(p, 4)
	cfg := DefaultConfig()
	cfg.MaxLists = 12
	sys, err := Setup(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Plan.NumLists() > 12 {
		t.Fatalf("plan has %d lists, want <= 12", sys.Plan.NumLists())
	}
}

func TestNewWorkload(t *testing.T) {
	sys := testSystem(t, 5)
	cfg := workload.DefaultConfig()
	cfg.NumQueries = 500
	log := sys.NewWorkload(cfg)
	if len(log.Queries) != 500 {
		t.Fatalf("workload has %d queries", len(log.Queries))
	}
	for _, q := range log.Queries[:50] {
		for _, term := range q.Terms {
			if sys.Corpus.DF(term) == 0 {
				t.Fatalf("workload queries unseen term %d", term)
			}
		}
	}
}
