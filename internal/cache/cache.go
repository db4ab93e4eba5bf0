// Package cache provides the cluster router's window cache: a sharded,
// byte-bounded LRU of ranked windows, one entry per window, keyed by
// everything that determines which window it is — the merged list, the
// allowed-group set and the (offset, count) range. The key carries no
// version: an entry's QueryResult.Version is the shard's list version
// (store.Backend.Version) its window was read at, and a newer read of
// the same window is Put over it.
//
// An entry is never served on its own word. The router sends its
// version and tag (server.TagOf) with a conditional sub-query, and
// substitutes the entry only when the shard answers Unchanged: the
// list's version is the entry's, or it moved and the shard's current
// read of the window carries the same tag. The index server keeps no
// cache of its own.
//
// The cache aliases, never copies: an entry holds the Element slice it
// was Put with. The router Puts copies it made out of the response body
// a window arrived in (cluster.retainWindow), so a small window never
// pins a large body. One entry per window also bounds what superseded
// versions keep alive: at most one per window.
//
// Confidentiality: the cache lives on the trusted side, in the router,
// and holds windows the caller's tokens already let it read.
package cache

import (
	"hash/maphash"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"zerberr/internal/proof"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// Key identifies one ranked window: Groups pins the visibility filter,
// Offset/Count pin the range. Two reads of one key at one list version
// are guaranteed the same answer; the entry's own QueryResult.Version
// says which version it holds.
type Key struct {
	List zerber.ListID
	// Groups is the canonical allowed-group set — use GroupsKey.
	Groups string
	Offset int
	Count  int
}

// GroupsKey canonicalizes an allowed-group set: sorted IDs joined by
// ",", "*" for nil (no filter), "" for the empty set. The router keys
// a window by the groups its request's tokens claim, so two sets of
// tokens for the same groups share entries.
func GroupsKey(allowed map[int]bool) string {
	if allowed == nil {
		return "*"
	}
	ids := make([]int, 0, len(allowed))
	for g := range allowed {
		ids = append(ids, g)
	}
	sort.Ints(ids)
	var b strings.Builder
	for i, g := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(g))
	}
	return b.String()
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	// Hits and Misses count lookups: a hit is a Get that found an
	// entry. Evictions counts entries displaced by capacity pressure
	// (replacing a key in place is not an eviction).
	Hits, Misses, Evictions uint64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

// numShards spreads lock contention; keys are distributed by hash.
const numShards = 16

// entryOverhead is the accounted fixed cost of one entry beyond its
// payload bytes (map slot, list node, headers). An estimate — the
// bound is a sizing knob, not an allocator contract.
const entryOverhead = 128

// elementOverhead is the accounted per-element cost beyond the sealed
// payload (slice header, TRS, group).
const elementOverhead = 40

// Cache is a sharded LRU of ranked windows. All methods are safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	seed     maphash.Seed
	capacity int64
	shards   [numShards]shard

	hits, misses, evictions atomic.Uint64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// LRU ring: head.next is most recent, head.prev least recent.
	head  entry
	bytes int64
}

type entry struct {
	key        Key
	res        store.QueryResult
	bytes      int64
	prev, next *entry
}

// New creates a cache bounded by maxBytes of accounted payload. Each
// shard takes an equal slice of the budget, so one entry can never
// exceed maxBytes/16. maxBytes <= 0 yields a cache that stores
// nothing (every Get is a miss) — callers wanting "off" should keep a
// nil *Cache instead.
func New(maxBytes int64) *Cache {
	c := &Cache{seed: maphash.MakeSeed(), capacity: maxBytes}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[Key]*entry)
		s.head.prev = &s.head
		s.head.next = &s.head
	}
	return c
}

// shardFor hashes the key onto a shard.
func (c *Cache) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(k.List))
	put(uint64(k.Offset))
	put(uint64(k.Count))
	h.WriteString(k.Groups)
	return &c.shards[h.Sum64()%numShards]
}

// cost accounts an entry's bytes: payloads plus bookkeeping estimates.
// A memoized window proof is charged too — its hashes and boundary
// payloads are real resident bytes, and proved entries would otherwise
// look free to the LRU.
func cost(k Key, res store.QueryResult) int64 {
	n := int64(entryOverhead + len(k.Groups))
	for _, el := range res.Elements {
		n += int64(len(el.Sealed) + elementOverhead)
	}
	if w := res.Proof; w != nil {
		n += entryOverhead
		for _, gw := range w.Groups {
			n += entryOverhead + int64(len(gw.Path))*(proof.HashSize+8) + 2*proof.HashSize
			for _, edge := range [2][]proof.Boundary{gw.Pred, gw.Succ} {
				for _, b := range edge {
					n += int64(len(b.Sealed) + elementOverhead)
				}
			}
		}
	}
	return n
}

// Get returns the window cached under k, whatever its version, and
// refreshes its recency; finding one counts as a hit. The result's
// Elements alias the cached buffers — callers must not mutate them.
func (c *Cache) Get(k Key) (store.QueryResult, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		c.misses.Add(1)
		return store.QueryResult{}, false
	}
	c.hits.Add(1)
	s.moveFront(e)
	return e.res, true
}

// Put stores the window under k, replacing the entry already there (a
// newer read of a window replaces the older one), and evicts
// least-recently-used entries until the shard fits its budget. A window
// too large for the shard budget is not cached, and the entry it would
// have replaced is dropped: it is superseded, and would otherwise keep
// what it aliases alive.
func (c *Cache) Put(k Key, res store.QueryResult) {
	s := c.shardFor(k)
	n := cost(k, res)
	budget := c.capacity / numShards
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > budget {
		if e, ok := s.entries[k]; ok {
			s.remove(e)
		}
		return
	}
	if e, ok := s.entries[k]; ok {
		s.bytes += n - e.bytes
		e.res, e.bytes = res, n
		s.moveFront(e)
	} else {
		e := &entry{key: k, res: res, bytes: n}
		s.entries[k] = e
		s.bytes += n
		s.pushFront(e)
	}
	for s.bytes > budget {
		s.remove(s.head.prev)
		c.evictions.Add(1)
	}
}

// Stats returns the counters and occupancy. Occupancy is summed under
// the shard locks; the atomic counters are read without one, so a
// concurrent Get can make Hits+Misses momentarily disagree with what
// occupancy implies — fine for diagnostics.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// List-manipulation helpers; callers hold the shard lock.

func (s *shard) pushFront(e *entry) {
	e.prev = &s.head
	e.next = s.head.next
	e.prev.next = e
	e.next.prev = e
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.bytes -= e.bytes
}

func (s *shard) moveFront(e *entry) {
	if s.head.next == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
