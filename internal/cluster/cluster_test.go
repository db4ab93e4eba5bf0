package cluster

import (
	"context"
	"math"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/index"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// clusterHarness wires a 3-shard cluster with a fully indexed corpus.
type clusterHarness struct {
	c        *corpus.Corpus
	plan     *zerber.MergePlan
	servers  []*server.Server
	router   *Router
	cl       *client.Client
	baseline *index.Index
}

func newClusterHarness(t *testing.T, shards int, seed uint64) *clusterHarness {
	t.Helper()
	p := corpus.ProfileStudIP()
	p.NumDocs = 200
	p.VocabSize = 2000
	p.Topics = 2
	c := corpus.Generate(p, seed)
	split := corpus.NewSplit(c, 0.3, seed)
	store := rstf.TrainStore(
		corpus.TrainingScores(c, split.Train),
		corpus.TrainingScores(c, split.Control),
		rstf.StoreConfig{FallbackSeed: seed},
	)
	plan, err := zerber.BFM(zerber.FromCorpus(c), 32)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[int]crypt.GroupKey{}
	groups := make([]int, c.Groups)
	for g := range groups {
		groups[g] = g
		keys[g] = crypt.KeyFromPassphrase("cluster-group")
	}
	servers, router := newShards(t, shards, "writer", groups...)
	cl, err := client.New(router, client.Config{Plan: plan, Store: store, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.Docs {
		if err := cl.IndexDocument(context.Background(), d, d.Group); err != nil {
			t.Fatal(err)
		}
	}
	return &clusterHarness{c: c, plan: plan, servers: servers, router: router, cl: cl, baseline: index.Build(c)}
}

// newShards builds n in-process servers sharing one secret, registers
// the user for the groups on each, and routes over them.
func newShards(t *testing.T, n int, user string, groups ...int) ([]*server.Server, *Router) {
	t.Helper()
	servers := make([]*server.Server, n)
	transports := make([]client.Transport, n)
	for i := range servers {
		servers[i] = server.New([]byte("cluster-secret"), time.Hour)
		servers[i].RegisterUser(user, groups...)
		transports[i] = client.Local{S: servers[i]}
	}
	router, err := NewRouter(transports...)
	if err != nil {
		t.Fatal(err)
	}
	return servers, router
}

// numElements sums the elements stored across the servers.
func numElements(servers []*server.Server) int {
	n := 0
	for _, srv := range servers {
		n += srv.NumElements()
	}
	return n
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(); err == nil {
		t.Fatal("empty router accepted")
	}
}

func TestShardAssignmentStable(t *testing.T) {
	_, r := newShards(t, 3, "u")
	for list := zerber.ListID(0); list < 100; list++ {
		a := r.ShardFor(list)
		b := r.ShardFor(list)
		if a != b || a < 0 || a >= 3 {
			t.Fatalf("unstable or out-of-range shard for list %d: %d/%d", list, a, b)
		}
	}
}

func TestClusterDistributesLists(t *testing.T) {
	h := newClusterHarness(t, 3, 1)
	for i, srv := range h.servers {
		if srv.NumElements() == 0 {
			t.Fatalf("shard %d holds no elements", i)
		}
		// Every list on this shard must belong to it per the router.
		for _, list := range srv.Lists() {
			if h.router.ShardFor(list) != i {
				t.Fatalf("list %d stored on shard %d, owner is %d", list, i, h.router.ShardFor(list))
			}
		}
	}
	// No element lost.
	want := 0
	for _, d := range h.c.Docs {
		want += len(d.TF)
	}
	if got := numElements(h.servers); got != want {
		t.Fatalf("cluster holds %d elements, want %d", got, want)
	}
}

func TestClusterTopKMatchesBaseline(t *testing.T) {
	h := newClusterHarness(t, 3, 2)
	terms := h.c.TermsByDF()
	for _, term := range []corpus.TermID{terms[0], terms[10], terms[100], terms[len(terms)/2]} {
		got, stats, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 10, client.WithInitialResponse(10))
		if err != nil {
			t.Fatal(err)
		}
		want := h.baseline.TopK(term, 10)
		if len(got) != len(want) {
			t.Fatalf("term %d: %d results, want %d", term, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("term %d rank %d: %v vs %v", term, i, got[i].Score, want[i].Score)
			}
		}
		if stats.Requests < 1 {
			t.Fatal("no requests recorded")
		}
	}
}

func TestClusterDelete(t *testing.T) {
	h := newClusterHarness(t, 3, 3)
	victim := h.c.Docs[4]
	removed, err := h.cl.DeleteDocument(context.Background(), victim, victim.Group)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(victim.TF) {
		t.Fatalf("removed %d, want %d", removed, len(victim.TF))
	}
	for term := range victim.TF {
		res, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, h.c.NumDocs(), client.WithInitialResponse(50))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Doc == victim.ID {
				t.Fatalf("deleted doc still served by cluster for term %d", term)
			}
		}
	}
}

func TestSingleShardClusterEquivalent(t *testing.T) {
	h := newClusterHarness(t, 1, 4)
	term := h.c.TermsByDF()[5]
	got, _, err := h.cl.Search(context.Background(), []corpus.TermID{term}, 5, client.WithInitialResponse(10))
	if err != nil {
		t.Fatal(err)
	}
	want := h.baseline.TopK(term, 5)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
}
