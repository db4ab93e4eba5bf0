package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// TestRouterCacheRevalidation drives the conditional fan-out end to
// end: a cached router must answer repeated batches with revalidated
// retained windows (shards reply Unchanged), stay element-identical to
// an uncached router over the same shards, and fall back to full
// windows the moment a shard's list mutates. Runs over in-process and
// HTTP shard transports — the latter proves the conditional request
// field and the unchanged flag survive the wire.
func TestRouterCacheRevalidation(t *testing.T) {
	for _, mode := range []string{"local", "http"} {
		t.Run(mode, func(t *testing.T) {
			secret := []byte("router-cache-secret")
			const shards = 3
			servers := make([]*server.Server, shards)
			transports := make([]client.Transport, shards)
			for i := range servers {
				servers[i] = server.New(secret, time.Hour)
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
			cached.SetCache(cache.New(1 << 20))
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
			st, ok := cached.CacheStats()
			if !ok || st.Entries == 0 || st.Hits != 0 {
				t.Fatalf("after cold batch: %+v (ok=%v)", st, ok)
			}
			warm := compare("warm")
			st, _ = cached.CacheStats()
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
