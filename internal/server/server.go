// Package server implements the untrusted Zerber+R index server of
// Section 5.2: it stores merged posting lists whose elements carry an
// opaque sealed payload plus a plaintext transformed relevance score
// (TRS), keeps each list sorted by TRS, authenticates users, enforces
// group access control, and serves ranked ranges of posting elements
// so clients can run the progressive top-k protocol.
//
// The server never sees group keys, raw relevance scores, term
// identities or document identities — only list IDs, group IDs, TRS
// values and ciphertext. Storage is pluggable (internal/store): the
// default backend keeps lists in RAM; store.Durable adds a write-ahead
// log and snapshots so a restarted server recovers its index.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// StoredElement is what the server keeps and returns per posting
// element: ciphertext plus the server-visible ranking and ACL fields.
// It aliases store.Element so backends and the wire format agree.
type StoredElement = store.Element

// QueryResponse is one batch of the progressive protocol.
type QueryResponse struct {
	// Elements are the next ranked elements visible to the caller.
	// Their Sealed slices alias the store's buffers (the backend never
	// rewrites payload bytes in place, so they stay valid); in-process
	// callers must not mutate them. Over HTTP they alias the response
	// body the client read (wire.go): a caller that keeps one past the
	// call copies it.
	Elements []StoredElement `json:"elements"`
	// Exhausted reports that no further elements remain beyond this
	// batch for the caller's access rights.
	Exhausted bool `json:"exhausted"`
	// Version is the list's mutation version the range was served at
	// (store.Backend.Version). Callers may hold on to the response and
	// later revalidate it cheaply with ListQuery.IfVersion: an equal
	// version guarantees identical content. Always set (0 only for
	// legacy empty lists that have never been mutated).
	Version uint64 `json:"version,omitempty"`
	// Unchanged reports that the window the sub-query's IfVersion names
	// is still the current window, so Elements and Exhausted are
	// omitted and the caller reuses the one it retained. Version is the
	// list's current version: equal to IfVersion when nothing moved
	// (which covers a retained proof too — equal versions commit to
	// identical state), newer when the list moved but the current read
	// carries the sub-query's IfTag (unproven sub-queries only; the
	// caller's retained proof does not verify at the new version).
	Unchanged bool `json:"unchanged,omitempty"`
	// Proof is the window's Merkle proof, present exactly when the
	// sub-query asked for one (ListQuery.Proof): its continuation when
	// ListQuery.ProofFrom names the version served.
	Proof *proof.Window `json:"proof,omitempty"`
}

// Errors returned by server operations.
var (
	ErrAuth        = errors.New("server: authentication failed")
	ErrForbidden   = errors.New("server: group not covered by presented tokens")
	ErrUnknownUser = errors.New("server: unknown user")
	ErrUnknownList = errors.New("server: unknown posting list")
	ErrBadRequest  = errors.New("server: bad request")
)

// ErrTokenExpired is the expiry case of ErrAuth: the token's MAC is
// authentic but its lifetime is over. It unwraps to ErrAuth, so
// callers matching ErrAuth keep working; the wire protocol carries
// the distinction as the "token_expired" error code.
var ErrTokenExpired = fmt.Errorf("%w: token expired", ErrAuth)

// ErrNotFound reports a Remove for an element the list does not hold.
var ErrNotFound = errors.New("server: element not found")

// Server is an index server over a pluggable storage backend. All
// methods are safe for concurrent use. Request-serving methods take a
// context (API v3) and honor cancellation between units of work —
// a canceled query batch stops launching sub-queries; a write batch
// checks it once, before the backend applies the batch as a unit, so
// cancellation never leaves a batch half applied.
type Server struct {
	mu       sync.RWMutex // guards members and now; the backend locks itself
	secret   []byte       // immutable: the token table's entries hold under it
	tokenTTL time.Duration
	now      func() time.Time
	members  map[string]map[int]bool
	backend  store.Backend
	// tokens holds the MACs a full verification accepted (tokens.go).
	tokens verifiedTokens
	// met/adm/logger are the ops plane: metrics handles (SetObs),
	// admission control (SetAdmission) and the structured logger
	// (SetLogger). All atomic for lock-free hot-path loads; all nil
	// by default, costing un-instrumented servers one load each.
	met    metPtr
	adm    admPtr
	logger loggerPtr
	// inflight counts HTTP requests currently being served; the shed
	// bound compares against it, and the metrics gauge mirrors it. Kept
	// on the server (not serverMetrics) so shedding works with no
	// registry installed.
	inflight atomic.Int64
	// adminOff disables the /v3/admin endpoints (SetAdminEnabled).
	// Inverted so the zero value keeps them on.
	adminOff atomic.Bool
}

// New creates a server with the given token-signing secret and an
// in-memory backend. tokenTTL bounds token lifetime (zero means one
// hour).
func New(secret []byte, tokenTTL time.Duration) *Server {
	return NewWithBackend(secret, tokenTTL, store.NewMemory())
}

// NewWithBackend creates a server over an explicit storage backend —
// store.NewMemory() for the RAM-only server, store.OpenDurable for a
// crash-safe one. The server owns the backend from here on; close it
// through Server.Close.
func NewWithBackend(secret []byte, tokenTTL time.Duration, backend store.Backend) *Server {
	if tokenTTL <= 0 {
		tokenTTL = time.Hour
	}
	return &Server{
		secret:   append([]byte(nil), secret...),
		tokenTTL: tokenTTL,
		now:      time.Now,
		members:  make(map[string]map[int]bool),
		backend:  backend,
	}
}

// Close flushes and releases the storage backend.
func (s *Server) Close() error { return s.backend.Close() }

// SetCache does nothing: the server keeps no result cache. Windows are
// retained on the trusted side (cluster.Router.SetCache) and
// revalidated by ListQuery.IfTag. The method stays only because the
// end-to-end benchmark (benchmark/fixture.go) calls it; what it installs
// there is never consulted, so the benchmark's per-layer rows
// cache.hit_ratio, cache.evictions and cache.bytes_mb read 0.
func (s *Server) SetCache(*cache.Cache) {}

// CacheStats always reports (cache.Stats{}, false): the server keeps no
// result cache. It stays only because the end-to-end benchmark
// (benchmark/run.go) calls it, so its per-layer rows cache.hit_ratio,
// cache.evictions and cache.bytes_mb read 0.
func (s *Server) CacheStats() (cache.Stats, bool) { return cache.Stats{}, false }

// SetClock overrides the server clock (tests).
func (s *Server) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// clock returns the current clock function under the read lock.
func (s *Server) clock() func() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.now
}

// RegisterUser records the user's group memberships (the enterprise
// directory of the Section 2 scenario). Repeated calls extend the
// membership set.
func (s *Server) RegisterUser(user string, groups ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.members[user]
	if m == nil {
		m = make(map[int]bool)
		s.members[user] = m
	}
	for _, g := range groups {
		m[g] = true
	}
}

// Login authenticates a user and issues one token per group
// membership. (Password verification is out of scope — the paper
// assumes an enterprise authentication layer; we model its outcome.)
// The issued tokens enter the verified-token table, so the first round
// they authenticate pays no HMAC either.
func (s *Server) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	groups, ok := s.members[user]
	sorted := make([]int, 0, len(groups))
	for g := range groups {
		sorted = append(sorted, g)
	}
	now := s.now
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	t := now()
	// Rate-limit only known users: keying buckets by arbitrary
	// unauthenticated names would let a flood of garbage logins grow
	// the bucket table. (Outside s.mu.)
	if err := s.admit(user, t); err != nil {
		return nil, err
	}
	sort.Ints(sorted)
	expiry := t.Add(s.tokenTTL)
	toks := make([]crypt.Token, len(sorted))
	for i, g := range sorted {
		toks[i] = crypt.IssueToken(s.secret, user, g, expiry)
	}
	s.tokens.add(t, toks...)
	return toks, nil
}

// allowedGroups validates the presented tokens and returns the set of
// groups they grant, plus the clock reading it validated against (so
// callers can admit and time the round without re-reading the clock).
// Invalid or expired tokens are an authentication error, not silently
// dropped, and so is presenting none: an anonymous read would learn
// which lists exist, their versions and, with a proof, their roots.
func (s *Server) allowedGroups(toks []crypt.Token) (map[int]bool, time.Time, error) {
	now := s.clock()()
	if len(toks) == 0 {
		return nil, now, fmt.Errorf("%w: no token presented", ErrAuth)
	}
	allowed := make(map[int]bool, len(toks))
	for _, tok := range toks {
		// Verify the MAC first, then the lifetime, so expiry is only
		// reported for authentic tokens and a forged expiry cannot probe
		// the distinction. The lifetime is checked on every request, on
		// the token's own expiry, whether or not its MAC was known.
		if !s.tokens.verify(s.secret, tok, now) {
			return nil, now, fmt.Errorf("%w: invalid token for user %q group %d", ErrAuth, tok.User, tok.Group)
		}
		if now.After(tok.Expiry) {
			return nil, now, fmt.Errorf("%w: user %q group %d", ErrTokenExpired, tok.User, tok.Group)
		}
		allowed[tok.Group] = true
	}
	return allowed, now, nil
}

// queryAllowed is one sub-query past token validation: a batch's
// sub-queries share one validated group set instead of re-verifying
// the tokens each. The access-filtered ranked range is the backend's
// own hot path (per-group sorted sub-lists merged from the requested
// offset), so a sub-query costs the range, not the list.
//
// A non-nil IfVersion equal to the current version short-circuits: the
// caller has the window already, so only (Version, Unchanged) comes
// back, and the store is not read. A conditional sub-query whose
// version moved takes the read; if it is unproven and the tag of that
// read equals IfTag — the window the caller retained — the answer is
// still Unchanged, at the version read: a write below the window leaves
// it byte-identical. A proved sub-query carries no tag (checkTag) and
// stays version-equal only, because a retained proof commits to its own
// version's root.
func (s *Server) queryAllowed(allowed map[int]bool, q ListQuery) (QueryResponse, error) {
	if q.IfVersion != nil {
		ver, err := s.backend.Version(q.List)
		switch {
		case errors.Is(err, store.ErrUnknownList):
			return QueryResponse{}, fmt.Errorf("%w: %d", ErrUnknownList, q.List)
		case err != nil:
			return QueryResponse{}, err
		}
		if *q.IfVersion == ver {
			return QueryResponse{Version: ver, Unchanged: true}, nil
		}
	}
	var res store.QueryResult
	var err error
	if q.Proof {
		res, err = s.backend.QueryProved(q.List, allowed, q.Offset, q.Count)
	} else {
		res, err = s.backend.Query(q.List, allowed, q.Offset, q.Count)
	}
	if errors.Is(err, store.ErrUnknownList) {
		return QueryResponse{}, fmt.Errorf("%w: %d", ErrUnknownList, q.List)
	}
	if err != nil {
		return QueryResponse{}, err
	}
	if q.Proof {
		if m := s.met.Load(); m != nil {
			m.proved.Inc()
		}
	}
	if q.IfTag != nil && TagOf(res.Elements, res.Exhausted) == *q.IfTag {
		if m := s.met.Load(); m != nil {
			m.revalidated.Inc()
		}
		return QueryResponse{Version: res.Version, Unchanged: true}, nil
	}
	return s.respond(res, q), nil
}

// respond shapes a backend result into the wire response. A proved
// read's proof is trimmed to its continuation when the caller verified
// the window before this one at the version this one was read at.
func (s *Server) respond(res store.QueryResult, q ListQuery) QueryResponse {
	resp := QueryResponse{Elements: res.Elements, Exhausted: res.Exhausted, Version: res.Version}
	if res.Proof == nil {
		return resp
	}
	resp.Proof = res.Proof
	if q.ProofFrom != nil && *q.ProofFrom == res.Version {
		resp.Proof = proof.Continue(res.Proof, res.Elements, res.ProofEnds)
		if m := s.met.Load(); m != nil {
			m.continued.Inc()
		}
	}
	return resp
}

// ListLen reports how many elements the list holds in total
// (administrative/diagnostic; experiments use it for cost accounting).
// Best-effort: a failing backend (e.g. closed) reads as zero — use
// StatsV2 when the error matters.
func (s *Server) ListLen(list zerber.ListID) int {
	n, _ := s.backend.Len(list)
	return n
}

// NumLists reports how many merged lists exist. Best-effort, like
// ListLen.
func (s *Server) NumLists() int {
	n, _ := s.backend.NumLists()
	return n
}

// NumElements reports the total number of stored posting elements.
// Best-effort, like ListLen.
func (s *Server) NumElements() int {
	n, _ := s.backend.NumElements()
	return n
}

// BackendName reports the storage engine behind the server
// ("memory", "durable").
func (s *Server) BackendName() string { return s.backend.Name() }

// Snapshot returns a copy of a list's elements in rank order
// (adversary's view of a compromised server; used by the attack
// experiments). An unknown list is ErrUnknownList and a failing
// backend propagates, so callers can tell "empty" from "failed".
func (s *Server) Snapshot(list zerber.ListID) ([]StoredElement, error) {
	var out []StoredElement
	err := s.backend.View(list, func(elems []StoredElement) {
		out = make([]StoredElement, len(elems))
		for i, el := range elems {
			out[i] = el
			out[i].Sealed = append([]byte(nil), el.Sealed...)
		}
	})
	if errors.Is(err, store.ErrUnknownList) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownList, list)
	}
	if err != nil {
		return nil, fmt.Errorf("server: snapshot of list %d: %w", list, err)
	}
	return out, nil
}

// Lists returns the IDs of all known lists in ascending order.
// Best-effort, like ListLen.
func (s *Server) Lists() []zerber.ListID {
	out, _ := s.backend.Lists()
	return out
}
