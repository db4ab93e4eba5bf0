// Package client implements the trusted Zerber+R client of Section
// 5.2: it indexes documents (computing relevance scores, transforming
// them with the published RSTF, sealing posting elements under group
// keys) and executes top-k queries with the progressive follow-up
// protocol, decrypting and filtering responses locally.
//
// The API is context-first (v3): every operation takes a
// context.Context and long operations are cancelable between
// round-trips. Search is the one query entrypoint — functional
// options select the initial response size, strict top-k and window
// proofs — and SearchStream exposes the progressive protocol itself,
// yielding the provisional top-k after every round. A query drives
// every term's follow-up loop as one state machine over one round
// loop: each round's QueryBatch covers every open list, so a
// multi-term query costs O(max follow-up rounds) round-trips while
// QueryStats.Requests still counts Σ per-term requests, the paper's
// request model.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/rank"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// Config wires a client to its initialization artifacts.
type Config struct {
	// Plan is the merge-plan dictionary mapping terms to merged lists.
	Plan *zerber.MergePlan
	// Store holds the published per-term RSTFs.
	Store *rstf.Store
	// Codec seals posting elements; nil means crypt.GCMCodec{}.
	Codec crypt.ElementCodec
	// Keys are the group keys this user holds.
	Keys map[int]crypt.GroupKey
	// InitialResponse is the floor b under every scan's first window;
	// zero means 10 (the paper's b=k for top-10 on an unmerged list).
	// A search sizes its first sub-query to a merged list from the
	// plan (see FirstWindow) and never below b; WithInitialResponse
	// pins the window to exactly b instead, the fixed-b schedule of
	// Section 6.4.
	InitialResponse int
	// StrictTopK makes every top-k query provably exact by scanning
	// until the list's TRS falls strictly below the k-th match's TRS.
	// The default (false) follows the paper's cost model, extending the
	// scan only when there is plateau evidence at the boundary
	// (saturated TRS values or equal-TRS matches with distinct scores)
	// — exact in all but adversarial plateau cases.
	StrictTopK bool
}

// QueryStats accounts for the cost of one query, the quantities
// Figures 11-13 are computed from.
type QueryStats struct {
	// Requests is the number of per-list fetches (1 = no follow-ups),
	// summed over the query's terms: the paper's request count, and
	// the round-trips a schedule sending one list per round would take.
	Requests int
	// Rounds is the number of round-trips to the server. One round
	// covers every still-open list, so Rounds is the maximum follow-up
	// depth across terms (more only past the server's batch cap).
	Rounds int
	// Elements is the total number of posting elements returned
	// (TRes of Equation 12 unless the list was exhausted earlier).
	Elements int
	// Bytes is the response cost. Transports that actually serialize
	// report their measured wire size (the HTTP transport counts the
	// response-body bytes it read); in process nothing crosses a
	// wire, so Bytes falls back to Elements times the codec wire
	// size — the paper's Section 6.6 accounting. The measured figure
	// includes the frame around the payloads (header, versions, TRS
	// and group per element, proofs) and is therefore larger than
	// the estimate.
	Bytes int
	// Exhausted reports that the server ran out of visible elements.
	Exhausted bool
}

// Client is a Zerber+R user agent. It is not safe for concurrent use.
type Client struct {
	t      Transport
	cfg    Config
	user   string
	tokens []crypt.Token
	byGrp  map[int]crypt.Token
	// dilution[l] is ListMass(l) / max_{t∈l} P(t): how many elements
	// merged list l holds per element of its most frequent term.
	// Computed by New and only read after.
	dilution []float64
}

// ErrNotLoggedIn is returned when an operation needs authentication.
var ErrNotLoggedIn = errors.New("client: not logged in")

// ErrNoGroupKey is returned when the client lacks the key or token for
// a group it tries to use.
var ErrNoGroupKey = errors.New("client: missing group key or token")

// New creates a client over the given transport.
func New(t Transport, cfg Config) (*Client, error) {
	if cfg.Plan == nil {
		return nil, errors.New("client: config needs a merge plan")
	}
	if cfg.Store == nil {
		return nil, errors.New("client: config needs an RSTF store")
	}
	if cfg.Codec == nil {
		cfg.Codec = crypt.GCMCodec{}
	}
	if cfg.InitialResponse <= 0 {
		cfg.InitialResponse = 10
	}
	dilution := make([]float64, cfg.Plan.NumLists())
	for l := range dilution {
		top := 0.0
		for _, t := range cfg.Plan.Terms(zerber.ListID(l)) {
			top = max(top, cfg.Plan.P(t))
		}
		if top > 0 {
			dilution[l] = cfg.Plan.ListMass(zerber.ListID(l)) / top
		}
	}
	return &Client{t: t, cfg: cfg, dilution: dilution}, nil
}

// FirstWindow is the size of the first sub-query a top-k search with
// these options sends to merged list l. WithInitialResponse(b) pins it
// to b, the paper's fixed initial response. Otherwise it is half the
// expected depth of the k-th element of l's most frequent term,
// ⌈k · ListMass(l) / (2 · max_{t∈l} P(t))⌉, and at least the floor
// Config.InitialResponse; follow-ups double from there. Every term of
// a list, planned or hashed onto it, gets the same window, so the
// request shows the server nothing its list ID does not.
func (c *Client) FirstWindow(l zerber.ListID, k int, opts ...SearchOption) int {
	return c.firstWindow(l, k, c.options(opts).pinned)
}

func (c *Client) firstWindow(l zerber.ListID, k, pinned int) int {
	if pinned > 0 {
		return pinned
	}
	w := 0.0
	if int(l) < len(c.dilution) {
		w = math.Ceil(float64(k) * c.dilution[l] / 2)
	}
	return max(c.cfg.InitialResponse, int(min(w, math.MaxInt32)))
}

// Login authenticates against the index server and caches the issued
// group tokens.
func (c *Client) Login(ctx context.Context, user string) error {
	toks, err := c.t.Login(ctx, user)
	if err != nil {
		return err
	}
	c.user = user
	c.tokens = toks
	c.byGrp = make(map[int]crypt.Token, len(toks))
	for _, tok := range toks {
		c.byGrp[tok.Group] = tok
	}
	return nil
}

// ListFor resolves the merged posting list of a term. Terms absent
// from the merge plan (unseen at initialization, hence rare) are
// hashed onto an existing list deterministically, so inserting clients
// and querying clients agree without coordination.
func (c *Client) ListFor(term corpus.TermID) zerber.ListID {
	if l, ok := c.cfg.Plan.ListOf(term); ok {
		return l
	}
	h := fnv.New32a()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(term))
	h.Write(b[:])
	return zerber.ListID(h.Sum32() % uint32(c.cfg.Plan.NumLists()))
}

// IndexDocument builds, transforms and seals the posting elements of
// one document on behalf of the given group (the online insertion
// phase of Section 5), then uploads them as a batched insert — one
// round-trip per document instead of one per posting element. The
// server validates each batch as a unit, so for documents within the
// batch cap (all but those with >server.MaxBatchOps distinct terms) a
// rejected element means nothing of the document was indexed.
//
// Cancellation is honored between batched round-trips; a canceled
// context can leave a many-term document partially indexed (earlier
// chunks applied).
func (c *Client) IndexDocument(ctx context.Context, d *corpus.Document, group int) error {
	if c.tokens == nil {
		return ErrNotLoggedIn
	}
	tok, ok := c.byGrp[group]
	if !ok {
		return fmt.Errorf("%w: group %d", ErrNoGroupKey, group)
	}
	ops, err := c.SealDocument(d, group)
	if err != nil {
		return err
	}
	// One round-trip per document in practice; documents with more
	// terms than the server's batch cap are split.
	for start := 0; start < len(ops); start += server.MaxBatchOps {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+server.MaxBatchOps, len(ops))
		if err := c.t.InsertBatch(ctx, tok, ops[start:end]); err != nil {
			return fmt.Errorf("client: inserting elements %d-%d of %d: %w", start, end-1, len(ops), err)
		}
	}
	return nil
}

// SealDocument builds, transforms and seals the posting elements of
// one document under the given group's key, one insert op per term in
// ascending term order, without sending anything. IndexDocument
// uploads exactly these ops; a caller that must know the sealed bytes
// it acknowledged (randomized codecs cannot re-derive them) seals here
// and sends the ops itself. An empty document seals to no ops.
func (c *Client) SealDocument(d *corpus.Document, group int) ([]server.InsertOp, error) {
	key, ok := c.cfg.Keys[group]
	if !ok {
		return nil, fmt.Errorf("%w: group %d", ErrNoGroupKey, group)
	}
	if d.Length == 0 {
		return nil, nil
	}
	terms := make([]corpus.TermID, 0, len(d.TF))
	for term := range d.TF {
		terms = append(terms, term)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	ops := make([]server.InsertOp, 0, len(terms))
	for _, term := range terms {
		score := rank.NormTF(d.TF[term], d.Length)
		trs := c.cfg.Store.TRS(term, d.ID, score)
		sealed, err := c.cfg.Codec.Seal(crypt.Element{Doc: d.ID, Term: term, Score: score}, key)
		if err != nil {
			return nil, fmt.Errorf("client: sealing element for term %d: %w", term, err)
		}
		el := server.StoredElement{Sealed: sealed, TRS: trs, Group: group}
		ops = append(ops, server.InsertOp{List: c.ListFor(term), Element: el})
	}
	return ops, nil
}

// queryBatchChunked issues one round's sub-queries, splitting at the
// server's batch cap (each chunk is its own round-trip). Returns the
// responses in query order, the measured wire bytes (0 in process)
// and the number of round-trips taken.
//
// Whatever the transport, the answer is held to the store's window
// contract before a round loop advances a cursor by it: one window per
// sub-query, and a window that does not end its list is exactly as
// long as asked. A short, non-exhausted window would otherwise stall
// DeleteDocument's cursor forever and make Search double its batch
// until the count overflows.
func (c *Client) queryBatchChunked(ctx context.Context, queries []server.ListQuery) ([]server.QueryResponse, int, int, error) {
	resps := make([]server.QueryResponse, 0, len(queries))
	wireBytes, rounds := 0, 0
	for start := 0; start < len(queries); start += server.MaxBatchOps {
		if err := ctx.Err(); err != nil {
			return nil, wireBytes, rounds, err
		}
		end := min(start+server.MaxBatchOps, len(queries))
		res, err := c.t.QueryBatch(ctx, c.tokens, queries[start:end])
		if err != nil {
			return nil, wireBytes, rounds, err
		}
		rounds++
		wireBytes += res.WireBytes
		if len(res.Responses) != end-start {
			return nil, wireBytes, rounds, fmt.Errorf("client: %d windows answered for %d sub-queries", len(res.Responses), end-start)
		}
		for i, resp := range res.Responses {
			q := queries[start+i]
			if n := len(resp.Elements); !resp.Unchanged && !resp.Exhausted && n != q.Count {
				err := fmt.Errorf("client: list %d: window at offset %d holds %d of the %d elements asked for but does not end the list", q.List, q.Offset, n, q.Count)
				if q.Proof {
					// No committed window has this shape, so no proof of it can verify.
					err = fmt.Errorf("%w: %v", ErrProofInvalid, err)
				}
				return nil, wireBytes, rounds, err
			}
		}
		resps = append(resps, res.Responses...)
	}
	return resps, wireBytes, rounds, nil
}

// termScan is the per-term state of the progressive protocol: the
// cursor into one merged list, the doubling schedule, the matches
// collected so far and the stopping rule. Its sub-queries are what
// QueryStats.Requests counts, however a round packs them.
type termScan struct {
	term   corpus.TermID
	list   zerber.ListID
	k      int
	margin float64
	strict bool

	offset int
	batch  int

	matches   []match
	done      bool
	exhausted bool

	// verified is what verifying the scan's last window left, under
	// WithProof; nil before the first and after a window nothing
	// continues.
	verified *proof.Frontier
}

func (c *Client) newTermScan(term corpus.TermID, k int, o searchConfig) *termScan {
	list := c.ListFor(term)
	return &termScan{
		term:   term,
		list:   list,
		k:      k,
		margin: c.cfg.Store.Jitter(),
		strict: o.strict,
		batch:  c.firstWindow(list, k, o.pinned),
	}
}

// next is the sub-query covering this scan's coming round.
func (s *termScan) next() server.ListQuery {
	return server.ListQuery{List: s.list, Offset: s.offset, Count: s.batch}
}

// absorb folds one response into the scan and applies the stopping
// rule: collected top-k certain, or list exhausted, or keep going with
// a doubled batch. Only the elements that peek as the scan's term are
// opened, and only what Open authenticates becomes a match.
func (s *termScan) absorb(resp server.QueryResponse, r *elementReader) error {
	lastTRS := math.Inf(-1)
	for _, el := range resp.Elements {
		_, term, err := r.peek(el)
		if err != nil {
			return err
		}
		lastTRS = el.TRS
		if term != s.term {
			continue
		}
		plain, err := r.open(el)
		if err != nil {
			return err
		}
		if plain.Term != s.term {
			continue
		}
		s.matches = append(s.matches, match{res: rank.Result{Doc: plain.Doc, Score: plain.Score}, trs: el.TRS})
	}
	if resp.Exhausted {
		s.exhausted = true
		s.done = true
		return nil
	}
	if len(s.matches) >= s.k {
		// TRS of the k-th best match by score: monotonicity means
		// any unseen element beating it must carry a TRS at least
		// that high (minus jitter), and the list is TRS-sorted.
		kth := kthBestTRS(s.matches, s.k)
		if lastTRS < kth-s.margin {
			s.done = true
			return nil
		}
		// Boundary tie (kth == lastTRS up to the margin): an unseen
		// element could only win on a TRS plateau. Without strict
		// mode, stop unless a plateau is in evidence.
		if !s.strict && s.margin == 0 && !plateauRisk(s.matches, kth) {
			s.done = true
			return nil
		}
	}
	s.offset += len(resp.Elements)
	s.batch *= 2 // progressive response growth (Section 5.2)
	return nil
}

// results ranks the collected matches by their decrypted scores and
// cuts to k.
func (s *termScan) results() []rank.Result {
	sort.Slice(s.matches, func(i, j int) bool {
		if s.matches[i].res.Score != s.matches[j].res.Score {
			return s.matches[i].res.Score > s.matches[j].res.Score
		}
		return s.matches[i].res.Doc < s.matches[j].res.Doc
	})
	matches := s.matches
	if len(matches) > s.k {
		matches = matches[:s.k]
	}
	out := make([]rank.Result, len(matches))
	for i, m := range matches {
		out[i] = m.res
	}
	return out
}

// match pairs a decrypted result with the server-visible TRS it was
// ranked by.
type match struct {
	res rank.Result
	trs float64
}

// plateauRisk reports whether the boundary TRS might hide unseen
// better-scored elements: it is saturated (exactly 0 or 1, where the
// RSTF collapses out-of-range scores), or two collected matches with
// different scores share a TRS (an observed flat segment).
func plateauRisk(matches []match, kth float64) bool {
	if kth <= 0 || kth >= 1 {
		return true
	}
	byTRS := make(map[float64]float64, len(matches))
	for _, m := range matches {
		if prev, ok := byTRS[m.trs]; ok && prev != m.res.Score {
			return true
		}
		byTRS[m.trs] = m.res.Score
	}
	return false
}

// kthBestTRS returns the TRS of the k-th best-by-score match.
func kthBestTRS(matches []match, k int) float64 {
	// matches is small (a bit over k); a partial selection is plenty.
	tmp := append([]match(nil), matches...)
	sort.Slice(tmp, func(i, j int) bool {
		if tmp[i].res.Score != tmp[j].res.Score {
			return tmp[i].res.Score > tmp[j].res.Score
		}
		return tmp[i].res.Doc < tmp[j].res.Doc
	})
	return tmp[k-1].trs
}

// elementReader reads the elements of one search or one delete scan.
// A merged list holds many terms' elements, and the caller keeps only
// its own term's, so it peeks at each element's doc and term first and
// runs the authenticated Open only on the ones it keeps. A peek that
// misses discards the element, which is all a server achieves by
// omitting it. The reader holds one crypt.Peeker per group, built on
// the group's first element, so a peek looks up no key.
type elementReader struct {
	codec   crypt.ElementCodec
	keys    map[int]crypt.GroupKey
	peekers map[int]crypt.Peeker
}

func (c *Client) newElementReader() *elementReader {
	return &elementReader{codec: c.cfg.Codec, keys: c.cfg.Keys, peekers: make(map[int]crypt.Peeker, len(c.cfg.Keys))}
}

// peek reads a stored element's doc and term, unauthenticated.
func (r *elementReader) peek(el server.StoredElement) (corpus.DocID, corpus.TermID, error) {
	p, ok := r.peekers[el.Group]
	if !ok {
		key, ok := r.keys[el.Group]
		if !ok {
			return 0, 0, fmt.Errorf("%w: element of group %d", ErrNoGroupKey, el.Group)
		}
		var err error
		if p, err = r.codec.Peeker(key); err != nil {
			return 0, 0, fmt.Errorf("client: reading element of group %d: %w", el.Group, err)
		}
		r.peekers[el.Group] = p
	}
	doc, term, err := p.Peek(el.Sealed)
	if err != nil {
		return 0, 0, fmt.Errorf("client: reading element of group %d: %w", el.Group, err)
	}
	return doc, term, nil
}

// open decrypts and authenticates a stored element with its group key.
func (r *elementReader) open(el server.StoredElement) (crypt.Element, error) {
	key, ok := r.keys[el.Group]
	if !ok {
		return crypt.Element{}, fmt.Errorf("%w: element of group %d", ErrNoGroupKey, el.Group)
	}
	plain, err := r.codec.Open(el.Sealed, key)
	if err != nil {
		return crypt.Element{}, fmt.Errorf("client: opening element of group %d: %w", el.Group, err)
	}
	return plain, nil
}

// uniqueTerms drops repeated query terms, keeping first-occurrence
// order. Section 3.2 scoring sums each document's per-term top-k
// contribution once per distinct term; without deduplication a
// repeated term would run its own scan and rank.Accumulate would add
// the same contribution twice, inflating the repeated term's weight
// (and the query's cost) relative to the model.
func uniqueTerms(terms []corpus.TermID) []corpus.TermID {
	seen := make(map[corpus.TermID]bool, len(terms))
	uniq := make([]corpus.TermID, 0, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		uniq = append(uniq, t)
	}
	return uniq
}

// DeleteDocument removes every posting element of the document from
// the index (the other half of "unlimited index update and insert
// operations", Section 7). Because sealed payloads may be randomized
// (AES-GCM), the client locates its elements by downloading each
// affected merged list — all lists scanned in batched rounds — and
// peeking at every element of the group. Only the elements that peek
// as this document under one of its terms are opened, and only those
// Open authenticates are removed, with one batched remove (split only
// past the server's batch cap). Returns the number of elements
// removed; the server validates each batch as a unit, so a typical
// document is removed all-or-nothing.
//
// Cancellation is honored between round-trips. A context canceled
// during the remove phase can leave the document partially removed
// (the count reports what was); during the scan phase nothing has
// been modified yet.
func (c *Client) DeleteDocument(ctx context.Context, d *corpus.Document, group int) (int, error) {
	if c.tokens == nil {
		return 0, ErrNotLoggedIn
	}
	tok, okTok := c.byGrp[group]
	if _, okKey := c.cfg.Keys[group]; !okKey || !okTok {
		return 0, fmt.Errorf("%w: group %d", ErrNoGroupKey, group)
	}
	// Group terms by merged list so each list is scanned once.
	byList := make(map[zerber.ListID]map[corpus.TermID]bool)
	for term := range d.TF {
		l := c.ListFor(term)
		if byList[l] == nil {
			byList[l] = make(map[corpus.TermID]bool)
		}
		byList[l][term] = true
	}
	// Scan first, remove afterwards: removing while paginating would
	// shift offsets and skip elements. One cursor per affected list,
	// advanced together in batched rounds.
	type cursor struct {
		list   zerber.ListID
		offset int
		done   bool
	}
	cursors := make([]*cursor, 0, len(byList))
	for list := range byList {
		cursors = append(cursors, &cursor{list: list})
	}
	sort.Slice(cursors, func(i, j int) bool { return cursors[i].list < cursors[j].list })
	const scanBatch = 4096
	r := c.newElementReader()
	var victims []server.RemoveOp
	for {
		var queries []server.ListQuery
		var open []*cursor
		for _, cur := range cursors {
			if !cur.done {
				queries = append(queries, server.ListQuery{List: cur.list, Offset: cur.offset, Count: scanBatch})
				open = append(open, cur)
			}
		}
		if len(queries) == 0 {
			break
		}
		resps, _, _, err := c.queryBatchChunked(ctx, queries)
		if err != nil {
			return 0, err
		}
		for j, resp := range resps {
			cur := open[j]
			want := byList[cur.list]
			for _, el := range resp.Elements {
				if el.Group != group {
					continue
				}
				doc, term, err := r.peek(el)
				if err != nil {
					return 0, err
				}
				if doc != d.ID || !want[term] {
					continue
				}
				plain, err := r.open(el)
				if err != nil {
					return 0, err
				}
				if plain.Doc == d.ID && want[plain.Term] {
					victims = append(victims, server.RemoveOp{List: cur.list, Sealed: el.Sealed})
				}
			}
			if resp.Exhausted {
				cur.done = true
			} else {
				cur.offset += len(resp.Elements)
			}
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}
	removed := 0
	for start := 0; start < len(victims); start += server.MaxBatchOps {
		if err := ctx.Err(); err != nil {
			return removed, err
		}
		end := min(start+server.MaxBatchOps, len(victims))
		if err := c.t.RemoveBatch(ctx, tok, victims[start:end]); err != nil {
			return removed, err
		}
		removed += end - start
	}
	return removed, nil
}

// Codec exposes the configured element codec (experiments use it for
// byte accounting).
func (c *Client) Codec() crypt.ElementCodec { return c.cfg.Codec }
