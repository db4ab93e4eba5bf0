package workload

import (
	"math"
	"reflect"
	"testing"

	"zerberr/internal/corpus"
)

// collect drains the first n ops of a stream.
func collect(c *corpus.Corpus, cfg StreamConfig, seed uint64, n int) []Op {
	out := make([]Op, 0, n)
	for op := range Stream(c, cfg, seed) {
		out = append(out, op)
		if len(out) == n {
			break
		}
	}
	return out
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	c := testCorpus(1)
	var cfg StreamConfig
	a := collect(c, cfg, 7, 5000)
	b := collect(c, cfg, 7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (cfg, seed) produced two different streams")
	}
	other := collect(c, cfg, 8, 5000)
	same := 0
	for i := range a {
		if a[i].Kind == other[i].Kind && a[i].User == other[i].User {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced an identical stream")
	}
}

func TestStreamOpRatioMixing(t *testing.T) {
	c := testCorpus(3)
	cfg := StreamConfig{SearchFrac: 0.70, InsertFrac: 0.20, RemoveFrac: 0.10}
	const n = 30000
	ops := collect(c, cfg, 5, n)
	var counts [3]int
	for _, op := range ops {
		counts[op.Kind]++
	}
	searchFrac := float64(counts[OpSearch]) / n
	if math.Abs(searchFrac-0.70) > 0.02 {
		t.Fatalf("search fraction %.3f, want about 0.70", searchFrac)
	}
	// Removes of users with nothing live fall back to inserts, so the
	// mutation total is exact and removes only approach their share.
	mutFrac := float64(counts[OpInsert]+counts[OpRemove]) / n
	if math.Abs(mutFrac-0.30) > 0.02 {
		t.Fatalf("mutation fraction %.3f, want about 0.30", mutFrac)
	}
	if counts[OpRemove] == 0 {
		t.Fatal("no removes in 30k ops at RemoveFrac=0.10")
	}
}

func TestStreamRemovesTargetLiveDocs(t *testing.T) {
	c := testCorpus(4)
	cfg := StreamConfig{SearchFrac: 0.50, InsertFrac: 0.25, RemoveFrac: 0.25}
	live := make(map[corpus.DocID]uint64) // doc -> inserting user
	seen := make(map[corpus.DocID]bool)
	for _, op := range collect(c, cfg, 11, 20000) {
		switch op.Kind {
		case OpInsert:
			if op.Doc == nil || len(op.Doc.TF) == 0 {
				t.Fatalf("op %d: insert with empty document", op.Seq)
			}
			if seen[op.Doc.ID] {
				t.Fatalf("op %d: document ID %d minted twice", op.Seq, op.Doc.ID)
			}
			if int(op.Doc.ID) < c.NumDocs() {
				t.Fatalf("op %d: streamed doc ID %d collides with the corpus", op.Seq, op.Doc.ID)
			}
			seen[op.Doc.ID] = true
			live[op.Doc.ID] = op.User
		case OpRemove:
			owner, ok := live[op.Doc.ID]
			if !ok {
				t.Fatalf("op %d: remove of doc %d that is not live (double remove or never inserted)", op.Seq, op.Doc.ID)
			}
			if owner != op.User {
				t.Fatalf("op %d: user %d removes doc %d owned by user %d", op.Seq, op.User, op.Doc.ID, owner)
			}
			delete(live, op.Doc.ID)
		case OpSearch:
			if len(op.Terms) == 0 {
				t.Fatalf("op %d: empty search", op.Seq)
			}
		}
	}
}

func TestStreamZipfianUsers(t *testing.T) {
	c := testCorpus(5)
	perUser := make(map[uint64]int)
	for _, op := range collect(c, StreamConfig{}, 9, 20000) {
		perUser[op.User]++
	}
	if perUser[0] <= 20000/1000 {
		t.Fatalf("head user issued %d of 20000 ops — not a Zipf head", perUser[0])
	}
	if len(perUser) < 100 {
		t.Fatalf("only %d distinct users in 20000 ops — no tail", len(perUser))
	}
}
