package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// TestRouterCacheRevalidation drives the conditional fan-out end to
// end: a cached router must answer repeated batches with revalidated
// retained windows (shards reply Unchanged), stay element-identical to
// an uncached router over the same shards, fall back to full windows
// the moment a write lands inside a window, and keep its window when a
// write lands below it (the shard replies Unchanged at the new
// version). Runs over in-process and HTTP shard transports — the latter
// proves the conditional request field and the unchanged flag survive
// the wire.
func TestRouterCacheRevalidation(t *testing.T) {
	for _, mode := range []string{"local", "http"} {
		t.Run(mode, func(t *testing.T) {
			secret := []byte("router-cache-secret")
			const shards = 3
			servers := make([]*server.Server, shards)
			transports := make([]client.Transport, shards)
			reg := obs.NewRegistry()
			for i := range servers {
				servers[i] = server.New(secret, time.Hour)
				servers[i].SetObs(reg)
				servers[i].RegisterUser("u", 0, 1)
				if mode == "local" {
					transports[i] = client.Local{S: servers[i]}
				} else {
					ts := httptest.NewServer(servers[i].Handler())
					t.Cleanup(ts.Close)
					transports[i] = client.HTTP{BaseURL: ts.URL}
				}
			}
			cached, err := cluster.NewRouter(transports...)
			if err != nil {
				t.Fatal(err)
			}
			routerCache := cache.New(1 << 20)
			cached.SetCache(routerCache)
			uncached, err := cluster.NewRouter(transports...)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			toks, err := cached.Login(ctx, "u")
			if err != nil {
				t.Fatal(err)
			}

			// Spread lists over all shards and fill them.
			lists := []zerber.ListID{0, 1, 2, 3, 4, 5}
			for _, list := range lists {
				for i := 0; i < 30; i++ {
					el := server.StoredElement{
						Sealed: []byte(fmt.Sprintf("l%d-e%02d", list, i)),
						TRS:    float64((i*7)%30) / 30,
						Group:  i % 2,
					}
					if err := cached.Insert(ctx, toks[i%2], list, el); err != nil {
						t.Fatal(err)
					}
				}
			}
			queries := make([]server.ListQuery, len(lists))
			for i, list := range lists {
				queries[i] = server.ListQuery{List: list, Offset: i, Count: 5 + i}
			}
			compare := func(stage string) client.BatchQueryResult {
				t.Helper()
				got, err := cached.QueryBatch(ctx, toks, queries)
				if err != nil {
					t.Fatalf("%s: cached: %v", stage, err)
				}
				want, err := uncached.QueryBatch(ctx, toks, queries)
				if err != nil {
					t.Fatalf("%s: uncached: %v", stage, err)
				}
				if len(got.Responses) != len(want.Responses) {
					t.Fatalf("%s: %d responses, want %d", stage, len(got.Responses), len(want.Responses))
				}
				for i := range got.Responses {
					g, w := got.Responses[i], want.Responses[i]
					if g.Unchanged {
						t.Fatalf("%s: raw Unchanged leaked to the caller at %d", stage, i)
					}
					if g.Exhausted != w.Exhausted || g.Version != w.Version || !reflect.DeepEqual(g.Elements, w.Elements) {
						t.Fatalf("%s: response %d diverged: cached %d elements v%d, uncached %d v%d",
							stage, i, len(g.Elements), g.Version, len(w.Elements), w.Version)
					}
				}
				return got
			}

			cold := compare("cold")
			st := routerCache.Stats()
			if st.Entries == 0 || st.Hits != 0 {
				t.Fatalf("after cold batch: %+v", st)
			}
			warm := compare("warm")
			st = routerCache.Stats()
			if st.Hits < uint64(len(queries)) {
				t.Fatalf("warm batch reused %d windows, want %d: %+v", st.Hits, len(queries), st)
			}
			if mode == "http" && warm.WireBytes >= cold.WireBytes {
				t.Fatalf("revalidated batch cost %d wire bytes, cold cost %d — Unchanged saved nothing",
					warm.WireBytes, cold.WireBytes)
			}

			// Mutate one list: only its window may change, and the next
			// batch must pick the new content up (version moved, the
			// shard serves the full window again).
			victim := lists[2]
			if err := cached.Insert(ctx, toks[0], victim, server.StoredElement{Sealed: []byte("fresh"), TRS: 0.999, Group: 0}); err != nil {
				t.Fatal(err)
			}
			after := compare("after-mutation")
			if after.Responses[2].Version != warm.Responses[2].Version+1 {
				t.Fatalf("mutated list version %d, want %d", after.Responses[2].Version, warm.Responses[2].Version+1)
			}
			for i := range after.Responses {
				if lists[i] == victim {
					continue
				}
				if after.Responses[i].Version != warm.Responses[i].Version {
					t.Fatalf("unmutated list %d changed version", lists[i])
				}
			}

			// A write below one window moves its list's version but not
			// the window: the shard answers Unchanged at the new version,
			// so the batch costs what the warm one did, and the router
			// re-retains the window at that version. A proved read first
			// leaves a proof retained with the window.
			quiet := 3
			provedRead := func() server.QueryResponse {
				q := queries[quiet]
				q.Proof = true
				res, err := cached.QueryBatch(ctx, toks, []server.ListQuery{q})
				if err != nil {
					t.Fatal(err)
				}
				return res.Responses[0]
			}
			if provedRead().Proof == nil {
				t.Fatal("proved read returned no proof")
			}
			if err := cached.Insert(ctx, toks[0], lists[quiet], server.StoredElement{Sealed: []byte("below"), TRS: 0.001, Group: 0}); err != nil {
				t.Fatal(err)
			}
			below := compare("write-below")
			if below.Responses[quiet].Version != after.Responses[quiet].Version+1 {
				t.Fatalf("list written below its window: version %d, want %d", below.Responses[quiet].Version, after.Responses[quiet].Version+1)
			}
			if n := cached.Revalidated(); n != 1 {
				t.Fatalf("router revalidated %d windows at a moved version, want 1", n)
			}
			if below.WireBytes != warm.WireBytes {
				t.Fatalf("write-below batch cost %d wire bytes, warm batch %d", below.WireBytes, warm.WireBytes)
			}
			// The next batch is conditional on the re-retained version:
			// every shard takes the equal-version path, and none compares
			// a tag again.
			shardRevalidated := reg.Counter(server.MetricQueryRevalidated, "")
			before := shardRevalidated.Value()
			again, err := cached.QueryBatch(ctx, toks, queries)
			if err != nil {
				t.Fatal(err)
			}
			if n := shardRevalidated.Value(); n != before {
				t.Fatalf("batch after the re-retain revalidated %d windows by tag, want 0", n-before)
			}
			compare("after-write-below")
			if n := cached.Revalidated(); n != 1 || again.WireBytes != warm.WireBytes {
				t.Fatalf("batch after the re-retain: %d revalidations, %d wire bytes (warm %d)", n, again.WireBytes, warm.WireBytes)
			}
			// The re-retained window dropped its proof, which commits to
			// the version before the write.
			if p := provedRead().Proof; p == nil || p.Version != below.Responses[quiet].Version {
				t.Fatalf("proved read after the re-retain: proof %+v, want one at version %d", p, below.Responses[quiet].Version)
			}

			// A caller running its own revalidation gets the raw marker.
			ver := after.Responses[0].Version
			raw, err := cached.QueryBatch(ctx, toks, []server.ListQuery{{List: lists[0], Offset: 0, Count: 5, IfVersion: &ver}})
			if err != nil {
				t.Fatal(err)
			}
			if !raw.Responses[0].Unchanged || raw.Responses[0].Elements != nil {
				t.Fatalf("caller-set IfVersion was not passed through: %+v", raw.Responses[0])
			}
		})
	}
}

// TestRevalidationUnderWriters races a cached router over a server
// against 4 writers inserting and removing at random ranks, in
// groups the reader sees and one it does not, so retained windows are
// revalidated at moved versions while their lists move. Every
// observation of one (list, version, offset, count) must carry one
// content, and once the writers stop the cached router must answer
// every window as the uncached one does. CI runs it under -race, 20
// times.
func TestRevalidationUnderWriters(t *testing.T) {
	const (
		lists   = 3
		writers = 4
		readers = 2
	)
	secret := []byte("revalidation-writers-secret")
	srv := server.New(secret, time.Hour)
	srv.RegisterUser("reader", 0, 1)
	srv.RegisterUser("writer", 0, 1, 2)
	cached, err := cluster.NewRouter(client.Local{S: srv})
	if err != nil {
		t.Fatal(err)
	}
	cached.SetCache(cache.New(1 << 20))
	uncached, err := cluster.NewRouter(client.Local{S: srv})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rtoks, err := cached.Login(ctx, "reader")
	if err != nil {
		t.Fatal(err)
	}
	wtoks, err := cached.Login(ctx, "writer")
	if err != nil {
		t.Fatal(err)
	}
	// A token covers one group, so the seed goes in one batch per group.
	seed := make([][]server.InsertOp, 2)
	for l := 0; l < lists; l++ {
		for i := 0; i < 40; i++ {
			seed[i%2] = append(seed[i%2], server.InsertOp{List: zerber.ListID(l), Element: server.StoredElement{
				Sealed: []byte(fmt.Sprintf("seed-%d-%02d", l, i)), TRS: float64(i) / 40, Group: i % 2,
			}})
		}
	}
	for g, ops := range seed {
		if err := cached.InsertBatch(ctx, wtoks[g], ops); err != nil {
			t.Fatal(err)
		}
	}
	// The windows a progressive search reads at the head of a list.
	var windows []server.ListQuery
	for l := 0; l < lists; l++ {
		for _, w := range [][2]int{{0, 4}, {4, 8}, {12, 16}} {
			windows = append(windows, server.ListQuery{List: zerber.ListID(l), Offset: w[0], Count: w[1]})
		}
	}

	type windowKey struct {
		list          zerber.ListID
		version       uint64
		offset, count int
	}
	var mu sync.Mutex
	seen := map[windowKey]string{}
	observe := func(q server.ListQuery, resp server.QueryResponse) error {
		content := fmt.Sprintf("%v %v", resp.Elements, resp.Exhausted)
		k := windowKey{q.List, resp.Version, q.Offset, q.Count}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[k]; ok && prev != content {
			return fmt.Errorf("list %d version %d window [%d,%d): two contents observed", q.List, resp.Version, q.Offset, q.Offset+q.Count)
		}
		seen[k] = content
		return nil
	}

	// Readers run a fixed number of batches; writers write until the
	// readers are done (at most maxWrites each), so the two interleave
	// however the scheduler runs them.
	const batches, maxWrites = 300, 2000
	var wwg, rwg sync.WaitGroup
	errc := make(chan error, writers+readers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []server.RemoveOp
			var groups []int
			for i := 0; i < maxWrites; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if len(mine) > 0 && rng.Intn(3) == 0 {
					j := rng.Intn(len(mine))
					if err := cached.RemoveBatch(ctx, wtoks[groups[j]], mine[j:j+1]); err != nil {
						errc <- fmt.Errorf("writer %d: remove: %w", w, err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
					groups = append(groups[:j], groups[j+1:]...)
					continue
				}
				el := server.StoredElement{Sealed: []byte(fmt.Sprintf("w%d-%03d", w, i)), TRS: rng.Float64(), Group: rng.Intn(3)}
				list := zerber.ListID(rng.Intn(lists))
				if err := cached.InsertBatch(ctx, wtoks[el.Group], []server.InsertOp{{List: list, Element: el}}); err != nil {
					errc <- fmt.Errorf("writer %d: insert: %w", w, err)
					return
				}
				mine = append(mine, server.RemoveOp{List: list, Sealed: el.Sealed})
				groups = append(groups, el.Group)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for b := 0; b < batches; b++ {
				batch := make([]server.ListQuery, 1+rng.Intn(len(windows)))
				for i := range batch {
					batch[i] = windows[rng.Intn(len(windows))]
				}
				res, err := cached.QueryBatch(ctx, rtoks, batch)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				for i, resp := range res.Responses {
					if err := observe(batch[i], resp); err != nil {
						errc <- err
						return
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	close(stop)
	wwg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	t.Logf("%d windows observed, %d revalidated at a moved version", len(seen), cached.Revalidated())
	if cached.Revalidated() == 0 {
		t.Fatal("no window was revalidated at a moved version; the test is vacuous")
	}

	// Quiesced: twice over (the second pass is all equal-version
	// revalidations), the cached router answers as the uncached one.
	for pass := 0; pass < 2; pass++ {
		got, err := cached.QueryBatch(ctx, rtoks, windows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := uncached.QueryBatch(ctx, rtoks, windows)
		if err != nil {
			t.Fatal(err)
		}
		for i := range windows {
			g, w := got.Responses[i], want.Responses[i]
			if g.Version != w.Version || g.Exhausted != w.Exhausted || !reflect.DeepEqual(g.Elements, w.Elements) {
				t.Fatalf("pass %d, window %+v: cached %d elements v%d, uncached %d v%d", pass, windows[i], len(g.Elements), g.Version, len(w.Elements), w.Version)
			}
			if err := observe(windows[i], g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// downMember is a replica-set member whose reads fail with a transport
// fault once down is set: a killed process, as the set sees it.
type downMember struct {
	client.Transport
	down bool
}

func (d *downMember) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	if d.down {
		return client.BatchQueryResult{}, errors.New("dial tcp: connection refused")
	}
	return d.Transport.QueryBatch(ctx, toks, queries)
}

// TestRevalidationAcrossMembers: a router retains a window served by a
// replica set's primary; the list moves below the window, the primary
// goes down, and the router's conditional read fails over to a member
// that never served the window, at a version that member never had
// (members draw their own version epochs). The window's tag is all that
// member needs: it answers Unchanged, and the router re-stamps the
// window at that member's version.
func TestRevalidationAcrossMembers(t *testing.T) {
	secret := []byte("revalidation-members-secret")
	members := make([]*server.Server, 2)
	regs := make([]*obs.Registry, 2)
	for i := range members {
		members[i] = server.New(secret, time.Hour)
		regs[i] = obs.NewRegistry()
		members[i].SetObs(regs[i])
		members[i].RegisterUser("u", 0)
	}
	primary := &downMember{Transport: client.Local{S: members[0]}}
	set, err := replica.NewSet(primary, client.Local{S: members[1]})
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(set)
	if err != nil {
		t.Fatal(err)
	}
	router.SetCache(cache.New(1 << 20))
	ctx := context.Background()
	toks, err := router.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]server.InsertOp, 20)
	for i := range ops {
		ops[i] = server.InsertOp{List: 1, Element: server.StoredElement{Sealed: []byte(fmt.Sprintf("e%02d", i)), TRS: float64(1+i) / 21, Group: 0}}
	}
	if err := router.InsertBatch(ctx, toks[0], ops); err != nil {
		t.Fatal(err)
	}
	window := []server.ListQuery{{List: 1, Offset: 0, Count: 5}}
	first, err := router.QueryBatch(ctx, toks, window)
	if err != nil {
		t.Fatal(err)
	}
	below := server.InsertOp{List: 1, Element: server.StoredElement{Sealed: []byte("below"), TRS: 0, Group: 0}}
	if err := router.InsertBatch(ctx, toks[0], []server.InsertOp{below}); err != nil {
		t.Fatal(err)
	}
	primary.down = true

	got, err := router.QueryBatch(ctx, toks, window)
	if err != nil {
		t.Fatal(err)
	}
	if st := set.Stats(); st.Failovers != 1 {
		t.Fatalf("set stats %+v, want one failover", st)
	}
	revalidated := regs[1].Counter(server.MetricQueryRevalidated, "").Value()
	if revalidated != 1 || router.Revalidated() != 1 {
		t.Fatalf("the member that never served the window revalidated %d windows, the router re-stamped %d; want 1 and 1", revalidated, router.Revalidated())
	}
	want, _, err := client.Local{S: members[1]}.Query(ctx, toks, 1, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Responses[0]
	if r.Unchanged || r.Version != want.Version || r.Version == first.Responses[0].Version ||
		!reflect.DeepEqual(r.Elements, first.Responses[0].Elements) || !reflect.DeepEqual(r.Elements, want.Elements) {
		t.Fatalf("failover answer %d elements at version %d; the member serves %d at %d, the primary served %d at %d",
			len(r.Elements), r.Version, len(want.Elements), want.Version, len(first.Responses[0].Elements), first.Responses[0].Version)
	}
}
