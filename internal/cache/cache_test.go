package cache

import (
	"fmt"
	"sync"
	"testing"

	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

func window(payloads ...string) store.QueryResult {
	res := store.QueryResult{}
	for i, p := range payloads {
		res.Elements = append(res.Elements, store.Element{Sealed: []byte(p), TRS: float64(i), Group: i % 3})
	}
	return res
}

func key(list zerber.ListID, groups string, offset, count int) Key {
	return Key{List: list, Groups: groups, Offset: offset, Count: count}
}

func TestGroupsKey(t *testing.T) {
	cases := []struct {
		allowed map[int]bool
		want    string
	}{
		{nil, "*"},
		{map[int]bool{}, ""},
		{map[int]bool{4: true}, "4"},
		{map[int]bool{7: true, 0: true, 3: true}, "0,3,7"},
	}
	for _, c := range cases {
		if got := GroupsKey(c.allowed); got != c.want {
			t.Errorf("GroupsKey(%v) = %q, want %q", c.allowed, got, c.want)
		}
	}
	// Canonical: two maps with the same members agree regardless of
	// construction order.
	a := map[int]bool{1: true, 2: true, 9: true}
	b := map[int]bool{9: true, 1: true, 2: true}
	if GroupsKey(a) != GroupsKey(b) {
		t.Fatal("GroupsKey not canonical")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	k := key(3, "0,2", 10, 5)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	res := window("aa", "bb")
	res.Exhausted = true
	res.Version = 17
	c.Put(k, res)
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !got.Exhausted || got.Version != 17 || len(got.Elements) != 2 {
		t.Fatalf("got %+v", got)
	}
	// Aliased, not copied: same backing buffers.
	if &got.Elements[0].Sealed[0] != &res.Elements[0].Sealed[0] {
		t.Fatal("payload was copied")
	}
	// Different groups, offsets and counts are different windows.
	for _, miss := range []Key{
		key(3, "0", 10, 5),
		key(3, "0,2", 11, 5),
		key(3, "0,2", 10, 6),
		key(4, "0,2", 10, 5),
	} {
		if _, ok := c.Get(miss); ok {
			t.Fatalf("hit on %+v", miss)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 5 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplaceInPlace(t *testing.T) {
	c := New(1 << 20)
	k := key(1, "*", 0, 10)
	first := window("old")
	first.Version = 5
	c.Put(k, first)
	second := window("new", "newer")
	second.Version = 6
	c.Put(k, second)
	got, ok := c.Get(k)
	if !ok || got.Version != 6 || len(got.Elements) != 2 {
		t.Fatalf("replace: ok=%v got %+v", ok, got)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after replace: %+v", st)
	}
}

// TestEvictionLRU forces one shard over budget and checks the least
// recently used window leaves first, with byte accounting intact.
func TestEvictionLRU(t *testing.T) {
	// Per-shard budget = total/16. Each entry below costs
	// entryOverhead + len("*") + 64 + elementOverhead = 233 bytes, so 4
	// fit per shard and inserting more evicts.
	c := New(16 * 1000)
	payload := func(i int) string { return fmt.Sprintf("%064d", i) }
	// All keys identical except offset -> hashing may spread them; to
	// pin one shard, find offsets that land on the same shard.
	target := c.shardFor(key(1, "*", 0, 1))
	var offsets []int
	for o := 0; len(offsets) < 6; o++ {
		if c.shardFor(key(1, "*", o, 1)) == target {
			offsets = append(offsets, o)
		}
	}
	for i, o := range offsets[:5] {
		c.Put(key(1, "*", o, 1), window(payload(i)))
	}
	// 5 entries * 233 > 1000: the first (LRU) must be gone.
	if _, ok := c.Get(key(1, "*", offsets[0], 1)); ok {
		t.Fatal("LRU entry survived over-budget insert")
	}
	if _, ok := c.Get(key(1, "*", offsets[4], 1)); !ok {
		t.Fatal("most recent entry evicted")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// Touching an old entry protects it: re-Get offsets[1], insert
	// another, and offsets[1] must outlive offsets[2].
	if _, ok := c.Get(key(1, "*", offsets[1], 1)); !ok {
		t.Fatal("entry 1 already gone")
	}
	c.Put(key(1, "*", offsets[5], 1), window(payload(5)))
	if _, ok := c.Get(key(1, "*", offsets[1], 1)); !ok {
		t.Fatal("recently-touched entry evicted before older one")
	}
	if _, ok := c.Get(key(1, "*", offsets[2], 1)); ok {
		t.Fatal("older entry survived while budget forced eviction")
	}
}

// TestOversizedWindowNotCached: a window larger than a shard budget is
// skipped rather than evicting the whole shard for nothing.
func TestOversizedWindowNotCached(t *testing.T) {
	c := New(16 * 256) // 256 bytes per shard
	big := window(string(make([]byte, 4096)))
	k := key(1, "*", 0, 1)
	c.Put(k, big)
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized window cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestOversizedPutDropsOldEntry: a newer read of a window replaces the
// older one even when it is too large to cache — the superseded entry
// goes rather than staying resident and pinning what it aliases.
func TestOversizedPutDropsOldEntry(t *testing.T) {
	c := New(16 * 256) // 256 bytes per shard
	k := key(1, "*", 0, 1)
	old := window("small")
	old.Version = 1
	c.Put(k, old)
	if _, ok := c.Get(k); !ok {
		t.Fatal("small window not cached")
	}
	big := window(string(make([]byte, 4096)))
	big.Version = 2
	c.Put(k, big)
	if got, ok := c.Get(k); ok {
		t.Fatalf("superseded entry (version %d) still resident", got.Version)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestZeroCapacity: a zero/negative budget caches nothing but stays
// safe to use.
func TestZeroCapacity(t *testing.T) {
	for _, capBytes := range []int64{0, -1} {
		c := New(capBytes)
		c.Put(key(1, "*", 0, 1), window("x"))
		if _, ok := c.Get(key(1, "*", 0, 1)); ok {
			t.Fatalf("capacity %d cached an entry", capBytes)
		}
	}
}

// TestConcurrentAccess hammers all operations from many goroutines —
// run under -race in CI. Correctness assertion: any hit must return a
// window that was stored under exactly that key, whole.
func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 18)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := key(zerber.ListID(i%7), "0,1", i%5, 1+(i/3)%3)
				if i%3 == 0 {
					v := uint64(i % 11)
					res := window(fmt.Sprintf("%v/v%d", k, v))
					res.Version = v
					c.Put(k, res)
				} else if got, ok := c.Get(k); ok {
					if want := fmt.Sprintf("%v/v%d", k, got.Version); string(got.Elements[0].Sealed) != want {
						t.Errorf("hit returned %q, want %q", got.Elements[0].Sealed, want)
						return
					}
				}
				if i%500 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}
