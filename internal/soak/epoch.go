package soak

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// epochChecker wraps the cluster transport and enforces cache-epoch
// safety on every read that flows through it: the content served for
// one (list, version, offset, count) window must be identical every
// time it is observed — across router revalidation,
// replica failover, SIGKILLs and restarts. A divergence means some
// layer re-minted a version for different content (exactly the bug
// the per-durable-dir version epoch exists to prevent) or served a
// stale window as current.
//
// The checker is a client.Transport wrapping the router, so every
// worker's searches and writes pass through it without cooperating.
// The identity check does not: it pages each member through that
// member's own transport, so the checker sees one router's view, never
// the members' side by side.
type epochChecker struct {
	t client.Transport

	mu     sync.Mutex
	seen   map[windowKey]uint64 // -> content hash
	sample []string             // first few violation descriptions

	observed   atomic.Uint64
	violations atomic.Uint64
}

// maxWindows bounds the fingerprint map; past it the map resets. A
// reset only forgets history (weakening, never faking, the check).
const maxWindows = 1 << 20

type windowKey struct {
	list    zerber.ListID
	version uint64
	offset  int
	count   int
}

func newEpochChecker(t client.Transport) *epochChecker {
	return &epochChecker{t: t, seen: make(map[windowKey]uint64)}
}

// contentHash fingerprints a served window's visible content.
func contentHash(resp server.QueryResponse) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, el := range resp.Elements {
		binary.BigEndian.PutUint64(b[:], uint64(len(el.Sealed)))
		h.Write(b[:])
		h.Write(el.Sealed)
		binary.BigEndian.PutUint64(b[:], uint64(int64(el.TRS*1e12)))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], uint64(el.Group))
		h.Write(b[:])
	}
	if resp.Exhausted {
		h.Write([]byte{1})
	}
	return h.Sum64()
}

// observe checks one response against the fingerprint registry.
// Unchanged markers carry no content and versionless responses (v=0,
// in-memory backends) carry no epoch promise; both pass through.
func (c *epochChecker) observe(q server.ListQuery, resp server.QueryResponse) {
	if resp.Unchanged || resp.Version == 0 {
		return
	}
	key := windowKey{list: q.List, version: resp.Version, offset: q.Offset, count: q.Count}
	hash := contentHash(resp)
	c.observed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) >= maxWindows {
		c.seen = make(map[windowKey]uint64)
	}
	prev, ok := c.seen[key]
	if !ok {
		c.seen[key] = hash
	} else if prev != hash {
		c.violations.Add(1)
		c.sample = addSample(c.sample, fmt.Sprintf(
			"list %d version %d window [%d,%d): two different contents observed",
			q.List, resp.Version, q.Offset, q.Offset+q.Count))
	}
}

func (c *epochChecker) samples() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.sample...)
}

// Login implements client.Transport.
func (c *epochChecker) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	return c.t.Login(ctx, user)
}

// Insert implements client.Transport.
func (c *epochChecker) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return client.InsertOne(ctx, c.InsertBatch, tok, list, el)
}

// Remove implements client.Transport.
func (c *epochChecker) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return client.RemoveOne(ctx, c.RemoveBatch, tok, list, sealed)
}

// InsertBatch implements client.Transport.
func (c *epochChecker) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	return c.t.InsertBatch(ctx, tok, ops)
}

// RemoveBatch implements client.Transport.
func (c *epochChecker) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	return c.t.RemoveBatch(ctx, tok, ops)
}

// Query implements client.Transport.
func (c *epochChecker) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return client.QueryOne(ctx, c.QueryBatch, toks, list, offset, count)
}

// QueryBatch implements client.Transport.
func (c *epochChecker) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	res, err := c.t.QueryBatch(ctx, toks, queries)
	if err == nil && len(res.Responses) == len(queries) {
		for i, resp := range res.Responses {
			c.observe(queries[i], resp)
		}
	}
	return res, err
}

var _ client.Transport = (*epochChecker)(nil)
