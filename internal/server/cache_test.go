package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
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

// TestQueryBatchIfVersion pins the conditional sub-query protocol:
// matching IfVersion yields Unchanged with no elements, a stale one
// yields the full window with the new version, and a mutation in a
// group outside the caller's visibility still invalidates (the
// version is per list, deliberately conservative).
func TestQueryBatchIfVersion(t *testing.T) {
	s := server.New([]byte("if-version-secret"), time.Hour)
	s.RegisterUser("u", 0, 1)
	ctx := context.Background()
	toks, err := s.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		el := server.StoredElement{Sealed: []byte(fmt.Sprintf("e%02d", i)), TRS: float64(i) / 20, Group: i % 2}
		if err := client.InsertOne(ctx, s.InsertBatch, toks[i%2], 1, el); err != nil {
			t.Fatal(err)
		}
	}
	base, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 5}})
	if err != nil {
		t.Fatal(err)
	}
	resp := base[0]
	if resp.Version == 0 || resp.Unchanged {
		t.Fatalf("unconditional response: %+v", resp)
	}

	// Same version -> Unchanged, no payload.
	ver := resp.Version
	cond, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 5, IfVersion: &ver}})
	if err != nil {
		t.Fatal(err)
	}
	if !cond[0].Unchanged || cond[0].Version != ver || cond[0].Elements != nil {
		t.Fatalf("conditional hit: %+v", cond[0])
	}

	// Mutate (group 1 — outside or inside visibility, the per-list
	// version bumps either way), then the same conditional must serve
	// the full window at the new version.
	if err := client.InsertOne(ctx, s.InsertBatch, toks[1], 1, server.StoredElement{Sealed: []byte("fresh"), TRS: 0.99, Group: 1}); err != nil {
		t.Fatal(err)
	}
	cond2, err := s.QueryBatch(ctx, toks, []server.ListQuery{{List: 1, Offset: 0, Count: 5, IfVersion: &ver}})
	if err != nil {
		t.Fatal(err)
	}
	if cond2[0].Unchanged || cond2[0].Version != ver+1 || len(cond2[0].Elements) != 5 {
		t.Fatalf("conditional miss: unchanged=%v version=%d (want %d) elements=%d",
			cond2[0].Unchanged, cond2[0].Version, ver+1, len(cond2[0].Elements))
	}
	if string(cond2[0].Elements[0].Sealed) != "fresh" {
		t.Fatalf("full window after mutation misses the new top element: %q", cond2[0].Elements[0].Sealed)
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
}
