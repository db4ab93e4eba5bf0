package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/proof"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// oracleWindow is the shadow oracle: an independent filter-scan over
// the fully materialized rank-ordered list (the pre-rework read path),
// the same shape the store's own differential test checks against.
func oracleWindow(t *testing.T, b store.Backend, list zerber.ListID, allowed map[int]bool, offset, count int) ([]store.Element, bool) {
	t.Helper()
	var all []store.Element
	if err := b.View(list, func(elems []store.Element) {
		all = append([]store.Element(nil), elems...)
	}); err != nil {
		t.Fatalf("View(%d): %v", list, err)
	}
	var out []store.Element
	seen := 0
	for _, el := range all {
		if !allowed[el.Group] {
			continue
		}
		if seen >= offset {
			if len(out) >= count {
				return out, false
			}
			out = append(out, el)
		}
		seen++
	}
	return out, true
}

func sameElements(got []server.StoredElement, want []store.Element) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Group != want[i].Group || got[i].TRS != want[i].TRS ||
			string(got[i].Sealed) != string(want[i].Sealed) {
			return false
		}
	}
	return true
}

// TestCachedQueryDifferential races queries against a cached server
// with concurrent inserts and removes mutating the backend underneath
// (run under -race in CI). The invariant under concurrency: whenever a
// cached response and an uncached backend read carry the same list
// version, they must be element-identical. After the writers quiesce,
// every window — served twice, so the second pass is a guaranteed
// cache hit — must match the shadow-oracle filter-scan exactly.
func TestCachedQueryDifferential(t *testing.T) {
	const (
		lists     = 3
		numGroups = 5
	)
	backend := store.NewMemory()
	s := server.NewWithBackend([]byte("cache-differential-secret"), time.Hour, backend)
	s.SetCache(cache.New(4 << 20))
	s.RegisterUser("reader", 0, 2, 4)
	ctx := context.Background()
	toks, err := s.Login(ctx, "reader")
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[int]bool{0: true, 2: true, 4: true}

	// Seed every list so readers never race list creation.
	for l := 0; l < lists; l++ {
		for i := 0; i < 50; i++ {
			el := store.Element{Sealed: []byte(fmt.Sprintf("seed-%d-%04d", l, i)), TRS: float64(i%17) / 17, Group: i % numGroups}
			if err := backend.Insert(zerber.ListID(l), el); err != nil {
				t.Fatal(err)
			}
		}
	}

	const writers, readers = 3, 4
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	var matchedCmp int64
	var cmpMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine [][2]string // (list, payload) pairs eligible for removal
			for i := 0; i < 400; i++ {
				list := zerber.ListID(rng.Intn(lists))
				if len(mine) > 0 && rng.Intn(5) == 0 {
					j := rng.Intn(len(mine))
					var l zerber.ListID
					fmt.Sscanf(mine[j][0], "%d", &l)
					if err := backend.Remove(l, []byte(mine[j][1]), nil); err != nil {
						errc <- fmt.Errorf("writer %d: remove: %w", w, err)
						return
					}
					mine = append(mine[:j], mine[j+1:]...)
					continue
				}
				p := fmt.Sprintf("w%d-%04d", w, i)
				el := store.Element{Sealed: []byte(p), TRS: rng.Float64(), Group: rng.Intn(numGroups)}
				if err := backend.Insert(list, el); err != nil {
					errc <- fmt.Errorf("writer %d: insert: %w", w, err)
					return
				}
				mine = append(mine, [2]string{fmt.Sprint(list), p})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < 400; i++ {
				list := zerber.ListID(rng.Intn(lists))
				offset, count := rng.Intn(60), 1+rng.Intn(30)
				resp, _, err := client.QueryOne(ctx, client.Local{S: s}.QueryBatch, toks, list, offset, count)
				if err != nil {
					errc <- fmt.Errorf("reader %d: cached query: %w", r, err)
					return
				}
				direct, err := backend.Query(list, allowed, offset, count)
				if err != nil {
					errc <- fmt.Errorf("reader %d: direct query: %w", r, err)
					return
				}
				// Writers may have squeezed a mutation between the two
				// reads; the invariant is only claimed per version.
				if resp.Version != direct.Version {
					continue
				}
				if !sameElements(resp.Elements, direct.Elements) || resp.Exhausted != direct.Exhausted {
					errc <- fmt.Errorf("reader %d: version %d window (%d,%d,%d) diverged: cached %d elements (exhausted=%v), direct %d (exhausted=%v)",
						r, resp.Version, list, offset, count, len(resp.Elements), resp.Exhausted, len(direct.Elements), direct.Exhausted)
					return
				}
				cmpMu.Lock()
				matchedCmp++
				cmpMu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if matchedCmp == 0 {
		t.Fatal("no version-matched comparisons happened; test is vacuous")
	}

	// Quiesced: every window must equal the shadow oracle, twice (the
	// repeat is a guaranteed cache hit serving the same aliased
	// buffers).
	before, ok := s.CacheStats()
	if !ok {
		t.Fatal("no cache stats")
	}
	for l := 0; l < lists; l++ {
		list := zerber.ListID(l)
		for _, offset := range []int{0, 1, 7, 25, 100, 10_000} {
			for _, count := range []int{1, 10, 64} {
				want, wantExh := oracleWindow(t, backend, list, allowed, offset, count)
				for pass := 0; pass < 2; pass++ {
					resp, _, err := client.QueryOne(ctx, client.Local{S: s}.QueryBatch, toks, list, offset, count)
					if err != nil {
						t.Fatalf("list %d offset %d count %d pass %d: %v", list, offset, count, pass, err)
					}
					if !sameElements(resp.Elements, want) || resp.Exhausted != wantExh {
						t.Fatalf("list %d offset %d count %d pass %d: %d elements (exhausted=%v), oracle %d (exhausted=%v)",
							list, offset, count, pass, len(resp.Elements), resp.Exhausted, len(want), wantExh)
					}
				}
			}
		}
	}
	after, _ := s.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("quiesced repeats produced no cache hits: before %+v after %+v", before, after)
	}
}

// TestQueryBatchIfVersion pins the conditional sub-query protocol, one
// row per case: a matching IfVersion yields Unchanged with no elements;
// at a moved version an unproven sub-query is still Unchanged — at the
// new version — when the server cached the window at IfVersion and the
// write left it as it was; anything else yields the full window at the
// new version.
func TestQueryBatchIfVersion(t *testing.T) {
	ctx := context.Background()
	below := server.StoredElement{Sealed: []byte("below"), TRS: 0.01, Group: 0}
	const cached = 1 << 20
	cases := []struct {
		name string
		// cacheBytes sizes the server's cache, 0 for none.
		cacheBytes int64
		proof      bool
		// write mutates the list after the window was served at ver;
		// nil leaves it at ver.
		write     func(t *testing.T, s *server.Server, toks, other []crypt.Token)
		evict     bool
		unchanged bool
	}{
		{name: "same version", cacheBytes: cached, unchanged: true},
		{name: "write in a group the caller cannot see", cacheBytes: cached, unchanged: true,
			write: func(t *testing.T, s *server.Server, _, other []crypt.Token) {
				insert(t, s, other[0], server.StoredElement{Sealed: []byte("foreign"), TRS: 0.99, Group: 2})
			}},
		{name: "insert below the window", cacheBytes: cached, unchanged: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		{name: "remove below the window", cacheBytes: cached, unchanged: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) {
				if err := client.RemoveOne(ctx, s.RemoveBatch, toks[0], 1, []byte("e00")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "write inside the window", cacheBytes: cached,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) {
				insert(t, s, toks[1], server.StoredElement{Sealed: []byte("fresh"), TRS: 0.99, Group: 1})
			}},
		{name: "proved at a moved version", cacheBytes: cached, proof: true,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		{name: "cache off",
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) }},
		// 346 accounted bytes per 5-element window: one fits a shard, so
		// evictWindow can push it out.
		{name: "entry evicted", cacheBytes: 16 * 400,
			write: func(t *testing.T, s *server.Server, toks, _ []crypt.Token) { insert(t, s, toks[0], below) },
			evict: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backend := store.NewMemory()
			s := server.NewWithBackend([]byte("if-version-secret"), time.Hour, backend)
			reg := obs.NewRegistry()
			s.SetObs(reg)
			c := cache.New(tc.cacheBytes)
			if tc.cacheBytes > 0 {
				s.SetCache(c)
			}
			s.RegisterUser("u", 0, 1)
			s.RegisterUser("other", 2)
			toks, err := s.Login(ctx, "u")
			if err != nil {
				t.Fatal(err)
			}
			other, err := s.Login(ctx, "other")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				insert(t, s, toks[i%2], server.StoredElement{Sealed: []byte(fmt.Sprintf("e%02d", i)), TRS: float64(i) / 20, Group: i % 2})
			}
			q := server.ListQuery{List: 1, Offset: 0, Count: 5, Proof: tc.proof}
			base, err := s.QueryBatch(ctx, toks, []server.ListQuery{q})
			if err != nil {
				t.Fatal(err)
			}
			ver := base[0].Version
			if ver == 0 || base[0].Unchanged || len(base[0].Elements) != 5 {
				t.Fatalf("unconditional response: %+v", base[0])
			}
			want := ver
			if tc.write != nil {
				tc.write(t, s, toks, other)
				want = ver + 1
			}
			if tc.evict {
				evictWindow(t, s, c, toks)
			}

			q.IfVersion = &ver
			got, err := s.QueryBatch(ctx, toks, []server.ListQuery{q})
			if err != nil {
				t.Fatal(err)
			}
			resp := got[0]
			if resp.Unchanged != tc.unchanged || resp.Version != want {
				t.Fatalf("unchanged=%v version=%d, want unchanged=%v version=%d", resp.Unchanged, resp.Version, tc.unchanged, want)
			}
			wantRevalidated := uint64(0)
			if tc.unchanged && want != ver {
				wantRevalidated = 1
			}
			if n := reg.Counter(server.MetricQueryRevalidated, "").Value(); n != wantRevalidated {
				t.Fatalf("%s = %d, want %d", server.MetricQueryRevalidated, n, wantRevalidated)
			}
			if resp.Unchanged {
				if resp.Elements != nil || resp.Proof != nil {
					t.Fatalf("Unchanged answer carries a window: %+v", resp)
				}
				// The window the caller retained is the current one.
				cur, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 5}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cur[0].Elements, base[0].Elements) || cur[0].Exhausted != base[0].Exhausted {
					t.Fatalf("Unchanged, but the current window differs from the retained one")
				}
				return
			}
			want5, wantExh := oracleWindow(t, backend, 1, map[int]bool{0: true, 1: true}, 0, 5)
			if !sameElements(resp.Elements, want5) || resp.Exhausted != wantExh {
				t.Fatalf("full window %d elements (exhausted=%v), oracle %d (exhausted=%v)", len(resp.Elements), resp.Exhausted, len(want5), wantExh)
			}
			if tc.proof != (resp.Proof != nil) {
				t.Fatalf("proof present = %v on a proof=%v sub-query", resp.Proof != nil, tc.proof)
			}
			if tc.proof {
				verifyAgainstRoot(t, backend, resp, map[int]bool{0: true, 1: true}, 0, 5)
			}
		})
	}
}

func insert(t *testing.T, s *server.Server, tok crypt.Token, el server.StoredElement) {
	t.Helper()
	if err := client.InsertOne(context.Background(), s.InsertBatch, tok, 1, el); err != nil {
		t.Fatal(err)
	}
}

// evictWindow reads other windows of list 1 until the LRU pushes the
// (0, 5) window out of c, whose shards hold about one window each.
func evictWindow(t *testing.T, s *server.Server, c *cache.Cache, toks []crypt.Token) {
	t.Helper()
	k := cache.Key{List: 1, Groups: cache.GroupsKey(map[int]bool{0: true, 1: true}), Offset: 0, Count: 5}
	for offset := 1; offset < 10_000; offset++ {
		if _, err := s.QueryBatch(context.Background(), toks, []server.ListQuery{{List: 1, Offset: offset, Count: 5}}); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(k); !ok {
			return
		}
	}
	t.Fatal("the window was never evicted")
}

// verifyAgainstRoot checks a proved window against the list's
// published commitment at the version it was served at.
func verifyAgainstRoot(t *testing.T, b store.Backend, resp server.QueryResponse, allowed map[int]bool, offset, count int) {
	t.Helper()
	elems := make([]proof.WindowElement, len(resp.Elements))
	for i, el := range resp.Elements {
		elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	if err := proof.VerifyWindow(resp.Proof, allowed, offset, count, elems, resp.Exhausted, resp.Version); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	cm, err := b.Commitment(1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Version != resp.Version || cm.Root != resp.Proof.Root {
		t.Fatalf("proof at version %d root %s, list committed at version %d root %s", resp.Version, resp.Proof.Root, cm.Version, cm.Root)
	}
}

// TestStatsV2CacheCounters: /v2/stats carries the cache section only
// when a cache is installed, and the counters move.
func TestStatsV2CacheCounters(t *testing.T) {
	s := server.New([]byte("stats-cache-secret"), time.Hour)
	s.RegisterUser("u", 0)
	ctx := context.Background()
	toks, err := s.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.InsertOne(ctx, s.InsertBatch, toks[0], 1, server.StoredElement{Sealed: []byte("x"), TRS: 0.5, Group: 0}); err != nil {
		t.Fatal(err)
	}
	st, err := s.StatsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache != nil {
		t.Fatalf("cache section without a cache: %+v", st.Cache)
	}
	s.SetCache(cache.New(1 << 20))
	for i := 0; i < 3; i++ {
		if _, _, err := client.QueryOne(ctx, client.Local{S: s}.QueryBatch, toks, 1, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	st, err = s.StatsV2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("no cache section with a cache installed")
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 2 || st.Cache.Entries != 1 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
	if st.Cache.Capacity != 1<<20 || st.Cache.Bytes == 0 {
		t.Fatalf("cache sizing: %+v", st.Cache)
	}
	// A conditional read at a moved version finds the entry at the old
	// version and compares it with its read: that lookup served nothing,
	// so it is a miss even when the answer is Unchanged.
	insert(t, s, toks[0], server.StoredElement{Sealed: []byte("y"), TRS: 0.25, Group: 0})
	res, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 1}}) // a miss
	if err != nil {
		t.Fatal(err)
	}
	ver := res[0].Version
	insert(t, s, toks[0], server.StoredElement{Sealed: []byte("z"), TRS: 0.125, Group: 0})
	if res, err = s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 1, IfVersion: &ver}}); err != nil {
		t.Fatal(err)
	}
	if st, err = s.StatsV2(ctx); err != nil {
		t.Fatal(err)
	}
	if !res[0].Unchanged || st.Cache.Misses != 3 || st.Cache.Hits != 2 || st.Cache.Entries != 2 {
		t.Fatalf("after a conditional read at a moved version: unchanged=%v, cache %+v", res[0].Unchanged, st.Cache)
	}
}
