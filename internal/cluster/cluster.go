// Package cluster shards merged posting lists across several index
// servers — the paper's deployment model ("Zerber relies on a
// centralized set of largely untrusted index servers", Section 3.1).
// Each merged list lives on exactly one shard, chosen by a static hash
// of its list ID, so no server ever holds the whole index and the
// client-side protocol is unchanged: the Router implements
// client.Transport and routes every operation to the owning shard.
//
// Fan-out is context-aware (API v3): the caller's context flows to
// every shard, and the first shard failure cancels the context the
// remaining shards run under, so a slow or stuck shard is abandoned
// instead of holding the whole batch hostage.
//
// All shards must share the same token-signing secret and user
// registry (they are operated by the same enterprise infrastructure;
// each is still individually untrusted with respect to content).
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// Router fans a client's operations out to the shard owning each
// merged posting list. It implements client.Transport.
//
// With SetCache, the router keeps the windows shards returned and
// revalidates them per shard with conditional sub-queries
// (ListQuery.IfVersion): each list's response carries the owning
// shard's version for it, and a follow-up batch asks "serve this
// window only if the window moved". A shard whose windows are unchanged
// answers with tiny Unchanged markers and the router reuses the
// retained windows — same elements, a fraction of the wire bytes. An
// unproven conditional sub-query also carries the retained window's tag
// (server.TagOf), so a shard whose list moved outside the window still
// answers Unchanged, at the newer version, and the router re-stamps the
// retained window with it.
type Router struct {
	// tab is the live routing table. The slot count is fixed for the
	// router's lifetime (list→slot assignment never moves); which
	// transport serves a slot can change under Migrate, which swaps in
	// a whole new table with a bumped epoch. Reads load the table
	// lock-free; writes hold their slot's writeMu shared so a migration
	// cut-over (exclusive) can drain them before flipping the route.
	tab atomic.Pointer[routingTable]
	// writeMu[i] is slot i's write barrier: every mutation holds it
	// shared for the duration of the shard call and loads the table
	// only after acquiring it, so once Migrate holds it exclusively, no
	// write can land on the old transport or miss the new one.
	writeMu []sync.RWMutex
	// results is the optional window cache (nil = off). The retained
	// window's own Version, and its tag, are what conditional
	// revalidation sends.
	results atomic.Pointer[cache.Cache]
	// revalidated counts retained windows substituted at a moved
	// version (Revalidated).
	revalidated atomic.Uint64
	// health tracks per-shard liveness (health.go); index-parallel to
	// the table's slots.
	health []shardHealth
	// latency holds per-shard latency histograms of answered
	// operations; Quantile(0.95) is Health's LatencyP95 and the
	// zerber_shard_latency_p95_seconds gauge.
	latency []*obs.Histogram
	// migration outcome counters (Migrate; exposed via SetObs).
	migrationsOK     atomic.Uint64
	migrationsFailed atomic.Uint64
}

// routingTable is one immutable shard assignment. Migrate replaces the
// whole table atomically; readers of one batch therefore observe one
// consistent assignment.
type routingTable struct {
	epoch  uint64
	shards []client.Transport
}

// NewRouter builds a router over the given shard transports (local
// servers, HTTP endpoints, replica sets, or a mix). Transports must be
// distinct — wiring one server into two slots would fake capacity and
// corrupt per-shard health (client.TransportIdentity decides).
func NewRouter(shards ...client.Transport) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: need at least one shard")
	}
	seen := make(map[any]int, len(shards))
	for i, t := range shards {
		if t == nil {
			return nil, fmt.Errorf("cluster: nil transport for shard %d", i)
		}
		id := client.TransportIdentity(t)
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("cluster: shards %d and %d are the same transport", prev, i)
		}
		seen[id] = i
	}
	r := &Router{
		writeMu: make([]sync.RWMutex, len(shards)),
		health:  make([]shardHealth, len(shards)),
		latency: make([]*obs.Histogram, len(shards)),
	}
	for i := range r.latency {
		r.latency[i] = obs.NewHistogram(nil)
	}
	r.tab.Store(&routingTable{epoch: 1, shards: append([]client.Transport(nil), shards...)})
	return r, nil
}

// table is the current routing table.
func (r *Router) table() *routingTable { return r.tab.Load() }

// transport is the transport currently serving a slot.
func (r *Router) transport(shard int) client.Transport { return r.table().shards[shard] }

// Epoch identifies the current routing table; every Migrate bumps it.
func (r *Router) Epoch() uint64 { return r.table().epoch }

// NumShards returns the shard-slot count (fixed for the router's
// lifetime).
func (r *Router) NumShards() int { return len(r.health) }

// SetCache installs (or, with nil, removes) the router-side window
// cache. Reuse is always revalidated against the owning shard's
// current list version before a retained window is served, so results
// stay element-identical to an uncached fan-out. Safe to call while
// the router is serving traffic.
func (r *Router) SetCache(c *cache.Cache) { r.results.Store(c) }

// Revalidated counts the retained windows the router substituted for a
// shard's Unchanged answer at a version newer than the window's own:
// the shard's list moved, the window did not.
func (r *Router) Revalidated() uint64 { return r.revalidated.Load() }

// groupsOf canonicalizes the groups the presented tokens claim — the
// same set the shard's validated allowed-set will hold, so a window is
// retained under the visibility it was read with. (If a token is
// invalid the shard rejects the batch before any window is served,
// retained or not.)
func groupsOf(toks []crypt.Token) string {
	set := make(map[int]bool, len(toks))
	for _, tok := range toks {
		set[tok.Group] = true
	}
	return cache.GroupsKey(set)
}

// ShardFor returns the index of the shard owning a merged list.
// Assignment is static so inserting and querying clients agree without
// coordination.
func (r *Router) ShardFor(list zerber.ListID) int {
	return int(uint32(list) % uint32(len(r.health)))
}

// Login implements client.Transport. Shards share their secret and
// registry, so any shard's tokens are valid cluster-wide; the first
// shard answers.
func (r *Router) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	done := r.observeShard(0)
	toks, err := r.transport(0).Login(ctx, user)
	done(err)
	return toks, err
}

// Insert implements client.Transport.
func (r *Router) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return client.InsertOne(ctx, r.InsertBatch, tok, list, el)
}

// Query implements client.Transport.
func (r *Router) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return client.QueryOne(ctx, r.QueryBatch, toks, list, offset, count)
}

// Remove implements client.Transport.
func (r *Router) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return client.RemoveOne(ctx, r.RemoveBatch, tok, list, sealed)
}

// shardFanOut groups batch operation indices by owning shard and runs
// fn concurrently per shard with the shard-local index slice. Every
// shard runs under a context derived from the caller's that is
// canceled on the first shard FAULT — a transport failure, internal
// error or overload rejection, i.e. evidence the batch cannot succeed
// anyway — so in-flight requests to the remaining shards are abandoned
// rather than awaited. A clean per-operation rejection (a BatchError
// carrying forbidden, unknown-list, not-found, ...) does NOT cancel
// the siblings: the shard is healthy and the other shards' sub-batches
// are independent work the caller observed as applied, so interrupting
// them mid-apply would only convert one precise partial-failure report
// into several vague ones. A shard-local *server.BatchError is
// remapped onto the caller's original batch index, so partial-failure
// reporting survives the scatter/gather.
//
// Error precedence: the caller's own cancellation surfaces as the
// plain context error; otherwise the lowest-numbered shard that
// failed for a real reason wins (shards that merely observed the
// fan-out cancellation are skipped), decorated with its shard index.
func (r *Router) shardFanOut(ctx context.Context, n int, listOf func(i int) zerber.ListID, fn func(ctx context.Context, shard int, idxs []int) error) error {
	byShard := make(map[int][]int)
	for i := 0; i < n; i++ {
		s := r.ShardFor(listOf(i))
		byShard[s] = append(byShard[s], i)
	}
	shards := make([]int, 0, len(byShard))
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(map[int]error, len(shards))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			done := r.observeShard(s)
			err := fn(fanCtx, s, idxs)
			done(err)
			if err != nil {
				abort := fanOutAborts(err)
				var be *server.BatchError
				// The shard-local index is remote input (an HTTP shard
				// controls it); remap only if it addresses this
				// sub-batch, never trusting it to index idxs.
				if errors.As(err, &be) && be.Index >= 0 && be.Index < len(idxs) {
					err = &server.BatchError{Index: idxs[be.Index], Err: fmt.Errorf("cluster: shard %d: %w", s, be.Err)}
				} else {
					err = fmt.Errorf("cluster: shard %d: %w", s, err)
				}
				mu.Lock()
				errs[s] = err
				mu.Unlock()
				if abort {
					cancel() // abandon the remaining shards
				}
			}
		}(s, byShard[s])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range shards {
		if err := errs[s]; err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	for _, s := range shards {
		if err := errs[s]; err != nil {
			return err
		}
	}
	return nil
}

// QueryBatch implements client.Transport: sub-queries are grouped by
// owning shard, the shards are queried concurrently, and the
// responses are reassembled in the caller's order. WireBytes sums the
// shards' measured response sizes. The first shard failure (or the
// caller's cancellation) cancels the other shards' requests. Reads
// take no write barrier: during a migration cut-over they are served
// by whichever table they load — both sides hold identical content at
// that point.
//
// With a cache installed, each sub-query the router holds a retained
// window for goes out conditional on that window's shard version and,
// unproven, on its tag; an Unchanged answer substitutes the retained
// window, element-identical to what the shard would have re-served. An
// Unchanged answer at a newer version re-retains the same window at
// that version, so the next batch is conditional on it. Sub-queries whose callers set
// IfVersion themselves are passed through untouched — the caller is
// running its own revalidation and gets the raw Unchanged marker.
func (r *Router) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	if len(queries) == 0 {
		return client.BatchQueryResult{}, fmt.Errorf("%w: empty query batch", server.ErrBadRequest)
	}
	c := r.results.Load()
	var groups string
	// retained[i] is the cached window sub-query i was made conditional
	// on; nil entries (cache off, miss, or caller-set IfVersion) leave
	// the sub-query as given.
	retained := make([]*cachedWindow, len(queries))
	if c != nil {
		groups = groupsOf(toks)
	}
	out := make([]server.QueryResponse, len(queries))
	var mu sync.Mutex
	wireBytes := 0
	err := r.shardFanOut(ctx, len(queries), func(i int) zerber.ListID { return queries[i].List }, func(ctx context.Context, shard int, idxs []int) error {
		sub := make([]server.ListQuery, len(idxs))
		for j, gi := range idxs {
			sub[j] = queries[gi]
			if c != nil && sub[j].IfVersion == nil {
				if res, ok := c.Get(r.windowKey(groups, queries[gi])); ok && res.Version != 0 {
					// A proved sub-query can only be made conditional on a
					// window whose proof was retained with it: an Unchanged
					// answer must substitute the proof too, and a proof-less
					// entry has nothing to substitute. A retained proof is
					// full, so it answers a continuation request as well.
					if !sub[j].Proof || res.Proof != nil {
						w := &cachedWindow{res: res}
						retained[gi] = w
						sub[j].IfVersion = &w.res.Version
						if !sub[j].Proof {
							w.tag = server.TagOf(res.Elements, res.Exhausted)
							sub[j].IfTag = &w.tag
						}
					}
				}
			}
		}
		res, err := r.transport(shard).QueryBatch(ctx, toks, sub)
		if err != nil {
			return err
		}
		if len(res.Responses) != len(sub) {
			return fmt.Errorf("%d responses for %d queries", len(res.Responses), len(sub))
		}
		for j, gi := range idxs {
			resp := res.Responses[j]
			switch w := retained[gi]; {
			case resp.Unchanged && w != nil:
				// The shard vouched the retained window is still the
				// current content at resp.Version. At the window's own
				// version that makes the retained proof (same version,
				// same commitment) exact too, so a proved sub-query gets
				// it back; at a newer one the proof is of an older root,
				// and the window is re-retained without it.
				out[gi] = server.QueryResponse{Elements: w.res.Elements, Exhausted: w.res.Exhausted, Version: resp.Version}
				if resp.Version == w.res.Version {
					if queries[gi].Proof {
						out[gi].Proof = w.res.Proof
					}
					break
				}
				r.revalidated.Add(1)
				moved := w.res
				moved.Version, moved.Proof = resp.Version, nil
				c.Put(r.windowKey(groups, queries[gi]), moved)
			default:
				out[gi] = resp
				if c != nil && !resp.Unchanged && resp.Version != 0 && queries[gi].IfVersion == nil {
					c.Put(r.windowKey(groups, queries[gi]), retainWindow(resp))
				}
			}
		}
		mu.Lock()
		wireBytes += res.WireBytes
		mu.Unlock()
		return nil
	})
	if err != nil {
		return client.BatchQueryResult{}, err
	}
	return client.BatchQueryResult{Responses: out, WireBytes: wireBytes}, nil
}

// retainWindow copies what the window cache keeps of a response. Over
// HTTP a decoded window aliases the whole batch body it arrived in
// (server/wire.go: whoever retains past the call copies), so caching it
// as is would let a 1 KB window pin a body many times its size. Only a
// full proof is kept: a continuation verifies only for a client holding
// the window before it, so the window is kept without it and never
// answers a proved sub-query in its place.
func retainWindow(resp server.QueryResponse) store.QueryResult {
	res := store.QueryResult{Elements: slices.Clone(resp.Elements), Exhausted: resp.Exhausted, Version: resp.Version}
	for i := range res.Elements {
		res.Elements[i].Sealed = bytes.Clone(res.Elements[i].Sealed)
	}
	if resp.Proof != nil && !resp.Proof.Continued {
		// Hashes are values and the path slices are the decoder's own;
		// only the boundary payloads point into the body.
		w := *resp.Proof
		w.Groups = slices.Clone(w.Groups)
		for i := range w.Groups {
			gw := &w.Groups[i]
			gw.Pred, gw.Succ = cloneBoundary(gw.Pred), cloneBoundary(gw.Succ)
		}
		res.Proof = &w
	}
	return res
}

func cloneBoundary(b *proof.Boundary) *proof.Boundary {
	if b == nil {
		return nil
	}
	return &proof.Boundary{TRS: b.TRS, Sealed: bytes.Clone(b.Sealed)}
}

// cachedWindow pins one retained window for the duration of a batch,
// so the IfVersion and IfTag pointers sent to the shard and the window
// substituted on Unchanged cannot come from two different cache
// generations.
type cachedWindow struct {
	res store.QueryResult
	tag server.WindowTag
}

// windowKey is the router's version-agnostic cache key for one
// sub-query (the retained window's own Version carries the shard
// version).
func (r *Router) windowKey(groups string, q server.ListQuery) cache.Key {
	return cache.Key{List: q.List, Groups: groups, Offset: q.Offset, Count: q.Count}
}

// InsertBatch implements client.Transport: operations are grouped by
// owning shard and applied concurrently. Each shard validates its
// sub-batch atomically, but atomicity does not span shards: a failing
// shard leaves other shards' sub-batches applied, and because the
// first failure cancels the sibling shards' contexts, a sibling
// interrupted mid-apply can itself be left partially applied. The
// returned *server.BatchError carries the index in the caller's batch
// and the failing shard.
func (r *Router) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	if len(ops) == 0 {
		return fmt.Errorf("%w: empty insert batch", server.ErrBadRequest)
	}
	return r.shardFanOut(ctx, len(ops), func(i int) zerber.ListID { return ops[i].List }, func(ctx context.Context, shard int, idxs []int) error {
		sub := make([]server.InsertOp, len(idxs))
		for j, gi := range idxs {
			sub[j] = ops[gi]
		}
		r.writeMu[shard].RLock()
		defer r.writeMu[shard].RUnlock()
		return r.transport(shard).InsertBatch(ctx, tok, sub)
	})
}

// RemoveBatch implements client.Transport, with the same per-shard
// grouping and atomicity caveat as InsertBatch.
func (r *Router) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	if len(ops) == 0 {
		return fmt.Errorf("%w: empty remove batch", server.ErrBadRequest)
	}
	return r.shardFanOut(ctx, len(ops), func(i int) zerber.ListID { return ops[i].List }, func(ctx context.Context, shard int, idxs []int) error {
		sub := make([]server.RemoveOp, len(idxs))
		for j, gi := range idxs {
			sub[j] = ops[gi]
		}
		r.writeMu[shard].RLock()
		defer r.writeMu[shard].RUnlock()
		return r.transport(shard).RemoveBatch(ctx, tok, sub)
	})
}

// Local is a convenience in-process cluster: n servers sharing one
// secret and clock, plus the router over them.
type Local struct {
	Servers []*server.Server
	Router  *Router
}

// NewLocal builds an n-shard in-process cluster.
func NewLocal(n int, secret []byte, tokenTTL time.Duration) (*Local, error) {
	if n <= 0 {
		return nil, errors.New("cluster: need at least one shard")
	}
	l := &Local{}
	transports := make([]client.Transport, n)
	for i := 0; i < n; i++ {
		srv := server.New(secret, tokenTTL)
		l.Servers = append(l.Servers, srv)
		transports[i] = client.Local{S: srv}
	}
	router, err := NewRouter(transports...)
	if err != nil {
		return nil, err
	}
	l.Router = router
	return l, nil
}

// RegisterUser records the user on every shard (the shared enterprise
// directory).
func (l *Local) RegisterUser(user string, groups ...int) {
	for _, srv := range l.Servers {
		srv.RegisterUser(user, groups...)
	}
}

// NumElements sums stored elements across shards.
func (l *Local) NumElements() int {
	n := 0
	for _, srv := range l.Servers {
		n += srv.NumElements()
	}
	return n
}

var _ client.Transport = (*Router)(nil)
