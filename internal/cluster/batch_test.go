package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/rank"
	"zerberr/internal/replica"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// newBatchCluster builds a 3-shard cluster with one logged-in token
// and one element per list 0..n-1, where element TRS encodes its list
// (list i holds TRS = (i+1)/100).
func newBatchCluster(t *testing.T, nLists int) ([]*server.Server, *Router, crypt.Token, []crypt.Token) {
	t.Helper()
	servers, router := newShards(t, 3, "w", 0)
	toks, err := router.Login(context.Background(), "w")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]server.InsertOp, nLists)
	for i := 0; i < nLists; i++ {
		ops[i] = server.InsertOp{
			List:    zerber.ListID(i),
			Element: server.StoredElement{Sealed: []byte{byte(i)}, TRS: float64(i+1) / 100, Group: 0},
		}
	}
	if err := router.InsertBatch(context.Background(), toks[0], ops); err != nil {
		t.Fatal(err)
	}
	return servers, router, toks[0], toks
}

func TestRouterQueryBatchSpansShardsInOrder(t *testing.T) {
	const nLists = 9
	servers, router, _, toks := newBatchCluster(t, nLists)

	// Every shard got its share of the batched insert.
	for i, srv := range servers {
		if srv.NumElements() == 0 {
			t.Fatalf("shard %d empty after batched insert", i)
		}
	}

	// Query all lists in deliberately scrambled order; responses must
	// come back in request order.
	order := []int{7, 2, 5, 0, 8, 3, 6, 1, 4}
	queries := make([]server.ListQuery, len(order))
	for j, l := range order {
		queries[j] = server.ListQuery{List: zerber.ListID(l), Offset: 0, Count: 10}
	}
	res, err := router.QueryBatch(context.Background(), toks, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != len(order) {
		t.Fatalf("%d responses for %d queries", len(res.Responses), len(order))
	}
	for j, l := range order {
		resp := res.Responses[j]
		want := float64(l+1) / 100
		if len(resp.Elements) != 1 || !resp.Exhausted || resp.Elements[0].TRS != want {
			t.Fatalf("position %d (list %d): %+v, want single element TRS %v", j, l, resp, want)
		}
	}
}

func TestRouterRemoveBatchSpansShards(t *testing.T) {
	const nLists = 6
	servers, router, tok, _ := newBatchCluster(t, nLists)
	ops := make([]server.RemoveOp, nLists)
	for i := 0; i < nLists; i++ {
		ops[i] = server.RemoveOp{List: zerber.ListID(i), Sealed: []byte{byte(i)}}
	}
	if err := router.RemoveBatch(context.Background(), tok, ops); err != nil {
		t.Fatal(err)
	}
	if n := numElements(servers); n != 0 {
		t.Fatalf("%d elements left after batched remove", n)
	}
}

func TestRouterBatchErrorCarriesShardAndGlobalIndex(t *testing.T) {
	servers, router, tok, _ := newBatchCluster(t, 6)
	// Op 0 and 2 are fine; op 1 (list 4 -> shard 1 of 3) targets a
	// group the token does not cover. The surfaced error must name
	// shard 1 and the caller's op index 1, and shard-atomicity means
	// the failing shard applied nothing.
	shard := router.ShardFor(4)
	before := servers[shard].NumElements()
	err := router.InsertBatch(context.Background(), tok, []server.InsertOp{
		{List: 3, Element: server.StoredElement{Sealed: []byte{100}, TRS: 0.5, Group: 0}},
		{List: 4, Element: server.StoredElement{Sealed: []byte{101}, TRS: 0.5, Group: 99}},
		{List: 5, Element: server.StoredElement{Sealed: []byte{102}, TRS: 0.5, Group: 0}},
	})
	if !errors.Is(err, server.ErrForbidden) {
		t.Fatalf("cross-group insert err = %v, want ErrForbidden", err)
	}
	var be *server.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("global op index not preserved: %v", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d", shard)) {
		t.Fatalf("error does not name the failing shard: %v", err)
	}
	if servers[shard].NumElements() != before {
		t.Fatal("failing shard applied part of a rejected sub-batch")
	}
}

// failingShard wraps a transport and fails every batched query.
type failingShard struct {
	client.Transport
}

func (f failingShard) QueryBatch(context.Context, []crypt.Token, []server.ListQuery) (client.BatchQueryResult, error) {
	return client.BatchQueryResult{}, errors.New("shard down")
}

func TestRouterQueryBatchShardFailure(t *testing.T) {
	servers, _, _, toks := newBatchCluster(t, 9)
	shards := make([]client.Transport, 3)
	for i, srv := range servers {
		shards[i] = client.Local{S: srv}
	}
	shards[1] = failingShard{shards[1]}
	router, err := NewRouter(shards...)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]server.ListQuery, 9)
	for i := range queries {
		queries[i] = server.ListQuery{List: zerber.ListID(i), Offset: 0, Count: 10}
	}
	_, err = router.QueryBatch(context.Background(), toks, queries)
	if err == nil {
		t.Fatal("dead shard did not surface")
	}
	if !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "shard down") {
		t.Fatalf("shard failure not attributed: %v", err)
	}
}

// TestSearchSchedulesMatchAcrossTransports is the acceptance check of
// the one round loop: {plain, WithProof} over every Transport
// implementer — Local, HTTP, a 3-shard Router and a 2-member replica
// Set, each indexed through itself — returns element-identical results,
// and in process the query cost is exactly what the separate serial and
// batched loops reported before they were merged (wantStats; a proof
// changes none of it). The serial cost is derived, not run: Requests is
// the sum of the single-term searches' Requests, and Rounds their
// largest. Over HTTP only Bytes differs: it is the measured frame, not
// the codec estimate. Every deployment's servers count the proved
// follow-up windows they served as continuations: none for plain
// searches, some for proved ones, whichever layers sit in between.
func TestSearchSchedulesMatchAcrossTransports(t *testing.T) {
	const seed = 3
	p := corpus.ProfileStudIP()
	p.NumDocs = 200
	p.VocabSize = 2000
	p.Topics = 2
	c := corpus.Generate(p, seed)
	split := corpus.NewSplit(c, 0.3, seed)
	rstfs := rstf.TrainStore(
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
	secret := []byte("cluster-secret")
	newServer := func() *server.Server {
		srv := server.New(secret, time.Hour)
		srv.RegisterUser("writer", groups...)
		srv.SetObs(obs.NewRegistry())
		return srv
	}
	continued := func(servers []*server.Server) uint64 {
		n := uint64(0)
		for _, srv := range servers {
			n += srv.Obs().Counter(server.MetricProofContinuations, "").Value()
		}
		return n
	}
	terms := c.TermsByDF()
	q := []corpus.TermID{terms[0], terms[40], terms[400], terms[900]}
	const k = 10

	shards := []*server.Server{newServer(), newServer(), newServer()}
	router, err := NewRouter(client.Local{S: shards[0]}, client.Local{S: shards[1]}, client.Local{S: shards[2]})
	if err != nil {
		t.Fatal(err)
	}
	members := []*server.Server{newServer(), newServer()}
	set, err := replica.NewSet(client.Local{S: members[0]}, client.Local{S: members[1]})
	if err != nil {
		t.Fatal(err)
	}
	remote, local := newServer(), newServer()
	ts := httptest.NewServer(remote.Handler())
	defer ts.Close()
	transports := []struct {
		name    string
		t       client.Transport
		wire    bool
		servers []*server.Server
	}{
		{"local", client.Local{S: local}, false, []*server.Server{local}},
		{"http", client.HTTP{BaseURL: ts.URL}, true, []*server.Server{remote}},
		{"router", router, false, shards},
		{"set", set, false, members},
	}
	// The deterministic 8-byte codec makes every deployment store the
	// same bytes, so windows — and therefore costs — are comparable.
	codec := crypt.Compact64Codec{}
	schedules := []struct {
		name string
		opts []client.SearchOption
	}{
		{"plain", nil},
		{"proof", []client.SearchOption{client.WithProof()}},
	}
	var reference []rank.Result
	for _, tr := range transports {
		cl, err := client.New(tr.t, client.Config{Plan: plan, Store: rstfs, Keys: keys, Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Login(context.Background(), "writer"); err != nil {
			t.Fatal(err)
		}
		for _, d := range c.Docs {
			if err := cl.IndexDocument(context.Background(), d, d.Group); err != nil {
				t.Fatalf("%s: indexing doc %d: %v", tr.name, d.ID, err)
			}
		}
		for _, sch := range schedules {
			// A small initial response makes the terms' doubling loops
			// several rounds deep, and unevenly so.
			opts := append([]client.SearchOption{client.WithInitialResponse(2)}, sch.opts...)
			res, stats, err := cl.Search(context.Background(), q, k, opts...)
			if err != nil {
				t.Fatalf("%s, %s: %v", tr.name, sch.name, err)
			}
			if reference == nil {
				reference = res
			}
			if !reflect.DeepEqual(res, reference) {
				t.Errorf("%s, %s: results differ from the reference:\n%v\n%v", tr.name, sch.name, res, reference)
			}
			sumRequests, maxRequests := 0, 0
			for _, term := range q {
				_, st, err := cl.Search(context.Background(), []corpus.TermID{term}, k, opts...)
				if err != nil {
					t.Fatalf("%s, %s, term %d: %v", tr.name, sch.name, term, err)
				}
				sumRequests += st.Requests
				maxRequests = max(maxRequests, st.Requests)
			}
			if stats.Requests != sumRequests || stats.Rounds != maxRequests {
				t.Errorf("%s, %s: requests/rounds %d/%d, want Σ %d / max %d of the single-term searches",
					tr.name, sch.name, stats.Requests, stats.Rounds, sumRequests, maxRequests)
			}
			if tr.wire {
				if stats.Bytes <= wantStats.Bytes {
					t.Errorf("%s, %s: measured wire bytes %d not above the estimate %d", tr.name, sch.name, stats.Bytes, wantStats.Bytes)
				}
				stats.Bytes = wantStats.Bytes
			}
			if stats != wantStats {
				t.Errorf("%s, %s: stats %+v, want %+v", tr.name, sch.name, stats, wantStats)
			}
			if n := continued(tr.servers); (n > 0) != (sch.name == "proof") {
				t.Errorf("%s, %s: the servers served %d continuations", tr.name, sch.name, n)
			}
		}
	}
	if len(reference) != k {
		t.Fatalf("reference search returned %d results, want %d", len(reference), k)
	}
}

// Query cost of the TestSearchSchedulesMatchAcrossTransports fixture,
// in process, as recorded when a search could still send one list per
// round-trip: that schedule took {Requests 12, Rounds 12, Elements 49,
// Bytes 392}, i.e. Rounds = Requests = Σ per-term requests = 12; the
// batched one takes the same windows in max per-term requests = 3
// rounds.
var wantStats = client.QueryStats{Requests: 12, Rounds: 3, Elements: 49, Bytes: 392}
