package client

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"

	"zerberr/internal/corpus"
	"zerberr/internal/rank"
	"zerberr/internal/server"
)

// ErrBadQuery reports a structurally invalid query: k <= 0 or an
// empty (or nil) term slice. Earlier API generations silently
// returned empty results for empty term slices; the sentinel makes
// the caller's bug visible instead.
var ErrBadQuery = errors.New("client: bad query")

// searchConfig collects the functional options of Search and
// SearchStream.
type searchConfig struct {
	pinned int // first window fixed by WithInitialResponse; 0 derives it
	strict bool
	proved bool
}

// SearchOption customizes one Search or SearchStream call.
type SearchOption func(*searchConfig)

// options resolves a call's options over the client's configuration.
func (c *Client) options(opts []SearchOption) searchConfig {
	o := searchConfig{strict: c.cfg.StrictTopK}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithInitialResponse pins every scan's first window to exactly b,
// the fixed initial response size of the Section 6.4 protocol, instead
// of the window FirstWindow derives per list from the merge plan.
// b <= 0 keeps the derived windows.
func WithInitialResponse(b int) SearchOption {
	return func(o *searchConfig) { o.pinned = b }
}

// WithProof makes every round of this query verifiable: each
// sub-query requests a Merkle window proof and the response is
// verified — inclusion, adjacency, completeness and the exhausted
// flag, against a root pinned per (list, version) across the whole
// search — before anything is decrypted or ranked. A response failing
// verification aborts the search with ErrProofInvalid.
func WithProof() SearchOption {
	return func(o *searchConfig) { o.proved = true }
}

// Snapshot is one progressive-search observation: the provisional
// top-k and the cumulative cost after a protocol round. Later
// snapshots refine earlier ones — documents can enter, leave or
// reorder as more posting elements arrive, and a document's
// accumulated score can shrink as well as grow (a better-scored round
// can push it out of one term's per-term top-k cut, dropping that
// term's contribution). Only the Final snapshot is authoritative.
type Snapshot struct {
	// Results is the top-k over everything decrypted so far, in final
	// ranking order (descending score, ties by ascending DocID).
	Results []rank.Result
	// Stats is the cumulative query cost up to and including this
	// round.
	Stats QueryStats
	// Final marks the last snapshot of the stream: the protocol has
	// proven no unseen element can change Results, which are
	// element-identical to what Search returns for the same query.
	Final bool
}

// Search answers a multi-term top-k query (Section 3.2: per-term
// top-k scores summed per document — IDF-free scoring, a deliberate
// confidentiality/accuracy trade-off). It is the single v3 query
// entrypoint, consolidating the former TopK / TopKWithInitial /
// Search / SearchSerial quartet behind functional options.
//
// All terms' follow-up loops run as one state machine: each round
// issues a single QueryBatch covering every still-open list, so a
// T-term query costs max(per-term rounds) round-trips. The paper's
// request count (Figs. 11-13), Σ per-term requests, is Stats.Requests.
//
// The context bounds the whole query: cancellation or a deadline is
// honored between rounds and aborts any in-flight round-trip on
// transports that perform I/O, returning the context's error.
func (c *Client) Search(ctx context.Context, terms []corpus.TermID, k int, opts ...SearchOption) ([]rank.Result, QueryStats, error) {
	var res []rank.Result
	var stats QueryStats
	// progressive=false skips the per-round provisional merge: only
	// the final snapshot is materialized, so the non-streaming path
	// costs one top-k merge like the pre-v3 entrypoints did.
	for snap, err := range c.searchStream(ctx, terms, k, false, opts) {
		if err != nil {
			return nil, snap.Stats, err
		}
		res, stats = snap.Results, snap.Stats
	}
	return res, stats, nil
}

// SearchStream runs the same query as Search but exposes the
// progressive protocol itself: the sequence yields a Snapshot after
// every round, so callers can render an evolving top-k instead of
// blocking on the final merge. The last snapshot has Final set and
// carries exactly Search's result.
//
// Breaking out of the range stops the query — no further follow-up
// round-trips are issued. On error the sequence yields one (Snapshot,
// error) pair — the snapshot carrying the cost accumulated so far —
// and ends; a canceled context surfaces as the context's error.
//
// The sequence is single-use and not safe for concurrent iteration.
func (c *Client) SearchStream(ctx context.Context, terms []corpus.TermID, k int, opts ...SearchOption) iter.Seq2[Snapshot, error] {
	return c.searchStream(ctx, terms, k, true, opts)
}

// searchStream is the shared driver behind Search and SearchStream.
// With progressive=false the per-round provisional merge is skipped
// and only the final snapshot is yielded — same protocol traffic,
// one merge instead of one per round.
func (c *Client) searchStream(ctx context.Context, terms []corpus.TermID, k int, progressive bool, opts []SearchOption) iter.Seq2[Snapshot, error] {
	o := c.options(opts)
	return func(yield func(Snapshot, error) bool) {
		var total QueryStats
		if c.tokens == nil {
			yield(Snapshot{}, ErrNotLoggedIn)
			return
		}
		if k <= 0 {
			yield(Snapshot{}, fmt.Errorf("%w: k must be positive, got %d", ErrBadQuery, k))
			return
		}
		terms := uniqueTerms(terms)
		if len(terms) == 0 {
			yield(Snapshot{}, fmt.Errorf("%w: no query terms", ErrBadQuery))
			return
		}
		scans := make([]*termScan, len(terms))
		for i, term := range terms {
			scans[i] = c.newTermScan(term, k, o)
		}
		c.stream(ctx, scans, k, progressive, o, &total, yield)
	}
}

// stream is the one round loop: each round sends every open scan's
// next sub-query as one QueryBatch, yielding a snapshot after each
// round (progressive) or only once settled, until all scans settle or
// the consumer breaks.
// With o.proved every sub-query requests a window proof and each
// response is verified before absorb sees it; a scan's sub-queries
// after its first ask for the continuation of the window it verified.
func (c *Client) stream(ctx context.Context, scans []*termScan, k int, progressive bool, o searchConfig, total *QueryStats, yield func(Snapshot, error) bool) {
	var ps *proofState
	if o.proved {
		ps = c.newProofState()
	}
	for {
		if err := ctx.Err(); err != nil {
			yield(Snapshot{Stats: *total}, err)
			return
		}
		var queries []server.ListQuery
		var open []int
		for i, s := range scans {
			if !s.done {
				q := s.next()
				if o.proved {
					q.Proof = true
					if s.verified != nil {
						v := s.verified.Version
						q.ProofFrom = &v
					}
				}
				queries = append(queries, q)
				open = append(open, i)
			}
		}
		resps, wireBytes, rounds, err := c.queryBatchChunked(ctx, queries)
		if err != nil {
			yield(Snapshot{Stats: *total}, err)
			return
		}
		total.Rounds += rounds
		total.Requests += len(queries)
		roundElems := 0
		for j, resp := range resps {
			if ps != nil {
				s := scans[open[j]]
				if s.verified, err = ps.verify(queries[j], resp, s.verified); err != nil {
					yield(Snapshot{Stats: *total}, err)
					return
				}
			}
			roundElems += len(resp.Elements)
			if err := scans[open[j]].absorb(resp, c.openElement); err != nil {
				yield(Snapshot{Stats: *total}, err)
				return
			}
		}
		total.Elements += roundElems
		if wireBytes > 0 {
			total.Bytes += wireBytes
		} else {
			total.Bytes += roundElems * c.cfg.Codec.WireSize()
		}
		// A snapshot is built every round in progressive mode, otherwise
		// only once every scan has settled.
		final := !slices.ContainsFunc(scans, func(s *termScan) bool { return !s.done })
		if !progressive && !final {
			continue
		}
		if !yield(snapshot(scans, k, final, total), nil) || final {
			return
		}
	}
}

// snapshot merges every scan's matches so far into the provisional
// top-k (the Equation 3 outer sum over query terms). final says the
// protocol has settled: all scans done means no unseen element can
// change the result. Stats are copied, so later rounds don't mutate
// yielded snapshots.
func snapshot(scans []*termScan, k int, final bool, total *QueryStats) Snapshot {
	acc := make(map[corpus.DocID]float64)
	exhausted := true
	for _, s := range scans {
		if !s.exhausted {
			exhausted = false
		}
		rank.Accumulate(acc, s.results())
	}
	if final {
		total.Exhausted = exhausted
	}
	return Snapshot{Results: rank.TopK(acc, k), Stats: *total, Final: final}
}
