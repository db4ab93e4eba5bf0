package server

// Batched operations — the only kind the server implements; a
// single-list call is a batch of one (client.InsertOne and friends). The
// progressive protocol of Section 5.2 is inherently multi-round, and a
// multi-term query runs one follow-up loop per term: a batch lets a
// client cover every still-open list with a single exchange per round,
// and lets writers upload a whole document's posting elements at
// once. Sub-queries of one batch are executed concurrently — they only
// take read views of the backend, so the fan-out is safe — and a
// canceled context or a failing sub-query aborts the siblings that
// have not started yet.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"zerberr/internal/crypt"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// ListQuery is one sub-query of a batched query: a ranked range of one
// merged posting list.
type ListQuery struct {
	List   zerber.ListID
	Offset int
	Count  int
	// IfVersion, when set, makes the sub-query conditional: the caller
	// retained this window from an earlier response served at this
	// version (the cluster router does this per shard). If the list's
	// current version equals it, the response is just {Version,
	// Unchanged: true}. If the version moved, an unproven sub-query that
	// also carries IfTag is still answered Unchanged, at the current
	// version, when the tag of the current read equals IfTag — a write
	// outside the window, such as below it or in a group the caller
	// cannot see, leaves the window as it was. Anything else serves the
	// full window as usual. An Unchanged answer to a proved sub-query
	// carries no proof either: it is only given at an equal version,
	// which commits to identical state, so the retained proof still
	// verifies.
	IfVersion *uint64
	// IfTag is the tag (TagOf) of the window the caller retained at
	// IfVersion. It is only valid beside IfVersion on an unproven
	// sub-query; anything else is a bad request.
	IfTag *WindowTag
	// Proof asks for the window's Merkle proof (QueryResponse.Proof).
	// Unproven sub-queries are byte-identical to pre-proof servers.
	Proof bool
	// ProofFrom, on a proved sub-query, says the caller verified this
	// list at this version, and its verified prefix ends at Offset (the
	// window before this one; proof.Frontier). If the window is read at
	// that version, its proof is the continuation (proof.Continue),
	// which omits what that verification left the caller holding. Any
	// other version gets the full proof.
	ProofFrom *uint64
}

// TagSize is the length of a window tag.
const TagSize = 16

// WindowTag names a window's content: SHA-256, truncated to TagSize
// bytes, over the window's Exhausted flag and then each element's TRS,
// group, payload length and sealed bytes (TagOf).
type WindowTag [TagSize]byte

// TagOf computes the tag of a window. Two windows with one tag are
// taken to be the same window: a collision needs about 2^64 tries, and
// a caller can only reach windows its tokens already let it read.
func TagOf(elems []StoredElement, exhausted bool) WindowTag {
	h := sha256.New()
	var buf [sha256.Size]byte
	if exhausted {
		buf[0] = 1
	}
	h.Write(buf[:1])
	for _, el := range elems {
		binary.BigEndian.PutUint64(buf[:8], math.Float64bits(el.TRS))
		binary.BigEndian.PutUint64(buf[8:16], uint64(int64(el.Group)))
		binary.BigEndian.PutUint64(buf[16:24], uint64(len(el.Sealed)))
		h.Write(buf[:24])
		h.Write(el.Sealed)
	}
	var t WindowTag
	copy(t[:], h.Sum(buf[:0]))
	return t
}

// checkTag refuses a tag the server could not use: one without the
// version it revalidates, or on a proved sub-query, whose retained proof
// commits to its own version's root and so stays version-equal only.
func checkTag(q ListQuery) error {
	switch {
	case q.IfTag == nil:
		return nil
	case q.IfVersion == nil:
		return fmt.Errorf("%w: window tag without a version", ErrBadRequest)
	case q.Proof:
		return fmt.Errorf("%w: window tag on a proved sub-query", ErrBadRequest)
	}
	return nil
}

// InsertOp is one element upload of a batched insert: a type alias of
// the store's, as StoredElement is, so a validated batch goes to the
// backend as it arrived.
type InsertOp = store.BatchInsert

// RemoveOp is one element deletion of a batched remove (an alias, as
// InsertOp).
type RemoveOp = store.BatchRemove

// BatchError reports which operation of a batch failed. It unwraps to
// the underlying sentinel, so errors.Is(err, ErrForbidden) etc. keep
// working on batched paths.
type BatchError struct {
	// Index is the position of the failing operation in the request
	// batch (for cluster fan-out, the position in the client's
	// original batch, not the shard-local one).
	Index int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("batch op %d: %v", e.Index, e.Err) }

func (e *BatchError) Unwrap() error { return e.Err }

// OneOp is how a batch of one reports its failure: the operation's own
// error, not "batch op 0" around it. Only an outermost *BatchError is
// stripped, so context a transport layer wrapped around one stays.
func OneOp(err error) error {
	if be, ok := err.(*BatchError); ok && be.Index == 0 {
		return be.Err
	}
	return err
}

// MaxBatchOps bounds how many operations or sub-queries one batch may
// carry; larger batches are rejected as bad requests. It caps the
// work a single authenticated request can demand (and sizes the bound
// on a request body, maxRequestBytes), and is far above what the
// client-side protocol generates per round.
const MaxBatchOps = 4096

// checkBatchSize rejects empty and oversized batches.
func checkBatchSize(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	if n > MaxBatchOps {
		return fmt.Errorf("%w: batch of %d operations exceeds the maximum %d", ErrBadRequest, n, MaxBatchOps)
	}
	return nil
}

// QueryBatch answers every sub-query under one token validation,
// executing them concurrently (bounded by GOMAXPROCS). Responses are
// returned in request order.
//
// The context is checked between sub-queries: canceling it stops
// launching new ones and the batch fails with the context's error. A
// failing sub-query likewise stops the siblings that have not
// started, and the batch fails with a *BatchError carrying the lowest
// index among the sub-queries that actually ran and failed (malformed
// sub-queries are still rejected up front with a precise index before
// anything runs).
func (s *Server) QueryBatch(ctx context.Context, toks []crypt.Token, queries []ListQuery) ([]QueryResponse, error) {
	if err := checkBatchSize(len(queries)); err != nil {
		return nil, err
	}
	// Validate every sub-query before running any, so a malformed
	// batch fails as a unit with a precise index.
	for i, q := range queries {
		if q.Offset < 0 || q.Count <= 0 {
			return nil, &BatchError{Index: i, Err: fmt.Errorf("%w: offset %d count %d", ErrBadRequest, q.Offset, q.Count)}
		}
		if err := checkTag(q); err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	allowed, now, err := s.allowedGroups(toks)
	if err != nil {
		return nil, err
	}
	// The rate limiter's key is the presenting user of the validated,
	// non-empty token set: one user presents all their group tokens
	// together. It is never a metric label.
	if err := s.admit(toks[0].User, now); err != nil {
		return nil, err
	}
	defer s.met.Load().endRound(len(queries), now)
	out := make([]QueryResponse, len(queries))
	errs := make([]error, len(queries))
	// Workers claim sub-queries in request order until one fails or the
	// caller cancels. The calling goroutine is the first worker — it
	// would otherwise only wait — so a batch of one, which is what every
	// single-list call is, starts no goroutine.
	var run struct {
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	}
	work := func() {
		for !run.failed.Load() && ctx.Err() == nil {
			i := int(run.next.Add(1)) - 1
			if i >= len(queries) {
				return
			}
			out[i], errs[i] = s.queryAllowed(allowed, queries[i])
			if errs[i] != nil {
				run.failed.Store(true)
			}
		}
	}
	for w := min(runtime.GOMAXPROCS(0), len(queries)); w > 1; w-- {
		run.wg.Add(1)
		go func() {
			defer run.wg.Done()
			work()
		}()
	}
	work()
	run.wg.Wait()
	// Caller cancellation wins and is reported as the plain context
	// error — no batch index, since no single operation is at fault.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A sub-query is left unclaimed only after a failure or a
	// cancellation, so past this loop every response is filled in.
	for i, err := range errs {
		if err != nil {
			return nil, &BatchError{Index: i, Err: err}
		}
	}
	return out, nil
}

// InsertBatch stores a batch of sealed posting elements under one
// token. The whole batch is validated (payloads present, token covers
// every element's group) before any element is applied, so a bad
// operation fails the batch atomically with its index. The validated
// batch is then handed to the backend as one operation — on a durable
// store that is a single batched WAL record and (under -fsync-each)
// at most one fsync for the whole upload — so a storage failure is a
// failure of the batch as a unit, not of an index within it.
func (s *Server) InsertBatch(ctx context.Context, tok crypt.Token, ops []InsertOp) error {
	if err := checkBatchSize(len(ops)); err != nil {
		return err
	}
	allowed, now, err := s.allowedGroups([]crypt.Token{tok})
	if err != nil {
		return err
	}
	if err := s.admit(tok.User, now); err != nil {
		return err
	}
	for i, op := range ops {
		if len(op.Element.Sealed) == 0 {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: empty payload", ErrBadRequest)}
		}
		if !allowed[op.Element.Group] {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: token group %d, element group %d", ErrForbidden, tok.Group, op.Element.Group)}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.backend.InsertBatch(ops); err != nil {
		return err
	}
	if m := s.met.Load(); m != nil {
		m.inserts.Add(uint64(len(ops)))
	}
	return nil
}

// RemoveBatch deletes a batch of elements under one token, all or none.
// The backend resolves every operation — element found, token covers
// the group of exactly the element that would go — and deletes the
// victims in one critical section, as one logged operation: one bad
// operation fails the batch with its index and nothing applied, and no
// concurrent writer or canceled context can interrupt a batch between
// its check and its apply. As with InsertBatch, a storage failure is a
// failure of the batch as a unit, not of an index within it.
func (s *Server) RemoveBatch(ctx context.Context, tok crypt.Token, ops []RemoveOp) error {
	if err := checkBatchSize(len(ops)); err != nil {
		return err
	}
	allowed, now, err := s.allowedGroups([]crypt.Token{tok})
	if err != nil {
		return err
	}
	if err := s.admit(tok.User, now); err != nil {
		return err
	}
	for i, op := range ops {
		if len(op.Sealed) == 0 {
			return &BatchError{Index: i, Err: fmt.Errorf("%w: empty payload", ErrBadRequest)}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	deniedGroup := 0
	err = s.backend.RemoveBatch(ops, func(group int) bool {
		if !allowed[group] {
			deniedGroup = group
		}
		return allowed[group]
	})
	var be *store.BatchOpError
	if errors.As(err, &be) {
		list := ops[be.Index].List
		switch {
		case errors.Is(be.Err, store.ErrUnknownList):
			err = fmt.Errorf("%w: %d", ErrUnknownList, list)
		case errors.Is(be.Err, store.ErrDenied):
			err = fmt.Errorf("%w: element of group %d", ErrForbidden, deniedGroup)
		case errors.Is(be.Err, store.ErrNotFound):
			err = fmt.Errorf("%w in list %d", ErrNotFound, list)
		default:
			err = be.Err
		}
		return &BatchError{Index: be.Index, Err: err}
	}
	if err != nil {
		return err
	}
	if m := s.met.Load(); m != nil {
		m.removes.Add(uint64(len(ops)))
	}
	return nil
}

// ListStat is one list's entry in the /v2/stats payload.
type ListStat struct {
	List     zerber.ListID `json:"list"`
	Elements int           `json:"elements"`
	// Version and Root are the list's current mutation version and its
	// Merkle list root in full, 64 hex characters (operators publish it
	// as the anchor proofs verify against; against a 64-bit prefix a
	// server finds two list states that publish alike in about 2^32
	// hashes), present only when the caller opted into roots (GET
	// /v2/stats?roots=1, StatsV2Roots). Computing a root materializes the
	// list's commitment, so the default stats path never pays for it.
	Version uint64 `json:"version,omitempty"`
	Root    string `json:"root,omitempty"`
}

// StatsV2 reports the totals plus per-list element counts (ascending
// list ID) and the storage backend name. Backend failures (e.g. a
// closed store) propagate instead of reading as an empty index; the
// context is checked between per-list reads.
func (s *Server) StatsV2(ctx context.Context) (StatsV2Response, error) {
	return s.statsV2(ctx, false)
}

// StatsV2Roots is StatsV2 plus each list's Merkle commitment (Version
// and Root per list). It materializes every list's leaves —
// an audit operation, not a monitoring one.
func (s *Server) StatsV2Roots(ctx context.Context) (StatsV2Response, error) {
	return s.statsV2(ctx, true)
}

func (s *Server) statsV2(ctx context.Context, roots bool) (StatsV2Response, error) {
	lists, err := s.backend.Lists()
	if err != nil {
		return StatsV2Response{}, err
	}
	per := make([]ListStat, 0, len(lists))
	elements := 0
	for _, l := range lists {
		if err := ctx.Err(); err != nil {
			return StatsV2Response{}, err
		}
		st := ListStat{List: l}
		if roots {
			cm, err := s.backend.Commitment(l)
			if err != nil {
				return StatsV2Response{}, err
			}
			st.Elements = cm.Elements
			st.Version = cm.Version
			st.Root = cm.Root.String()
		} else {
			n, err := s.backend.Len(l)
			if err != nil {
				return StatsV2Response{}, err
			}
			st.Elements = n
		}
		per = append(per, st)
		elements += st.Elements
	}
	sort.Slice(per, func(i, j int) bool { return per[i].List < per[j].List })
	resp := StatsV2Response{
		Lists:    len(lists),
		Elements: elements,
		Backend:  s.backend.Name(),
		PerList:  per,
	}
	resp.Ops = s.opsStats()
	return resp, nil
}
