package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// Transport abstracts how the client reaches the index server: in
// process (experiments, tests) or over HTTP (outsourced deployment).
//
// Every method takes a context as its first argument (API v3). The
// context bounds the whole exchange: transports that perform I/O must
// abandon the operation when the context is canceled or its deadline
// passes, returning the context's error (possibly wrapped — callers
// match with errors.Is).
//
// The batch methods are the protocol: one exchange covers many lists
// or many elements, which is what makes multi-term search O(rounds)
// instead of O(requests) over the network. Insert, Query and Remove
// are their batch-of-one case: every implementer forwards them through
// InsertOne, QueryOne and RemoveOne, no non-test code in this module
// calls them, and they stay only while benchmark/ wraps the interface
// (ROADMAP).
//
// Query responses carry the list's mutation version, and QueryBatch
// sub-queries may be conditional (server.ListQuery.IfVersion): a
// transport must pass both through unmodified — except the cluster
// Router, which may set IfVersion itself on sub-queries the caller
// left unconditional and must then resolve Unchanged answers back
// into full windows before returning them. Callers that set IfVersion
// explicitly always receive the raw Unchanged marker and own the
// retained window themselves (and may send its IfTag). The client's
// progressive search never sets it: its windows are retained only by a
// Router with a cache installed.
type Transport interface {
	Login(ctx context.Context, user string) ([]crypt.Token, error)
	Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error
	// Query's wireBytes is BatchQueryResult.WireBytes of the one-query
	// batch behind it.
	Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (resp server.QueryResponse, wireBytes int, err error)
	Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error
	QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error)
	InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error
	RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error
}

// BatchQueryResult is one batched round-trip's worth of responses,
// ordered like the sub-queries that produced them.
type BatchQueryResult struct {
	Responses []server.QueryResponse
	// WireBytes is the measured size of the response body on transports
	// that serialize (HTTP counts the bytes it read); 0 in process,
	// where nothing crosses a wire and callers fall back to the codec's
	// per-element estimate.
	WireBytes int
}

// InsertOne, QueryOne and RemoveOne run a single-list call as a batch
// of one through a transport's own batch method. They are the whole
// body of every implementer's Insert, Query and Remove, so what a layer
// adds to a call — routing, failover, retries, cross-checks — is written
// once, on its batch method.
func InsertOne(ctx context.Context, batch func(context.Context, crypt.Token, []server.InsertOp) error, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return server.OneOp(batch(ctx, tok, []server.InsertOp{{List: list, Element: el}}))
}

// QueryOne: see InsertOne.
func QueryOne(ctx context.Context, batch func(context.Context, []crypt.Token, []server.ListQuery) (BatchQueryResult, error), toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	res, err := batch(ctx, toks, []server.ListQuery{{List: list, Offset: offset, Count: count}})
	if err != nil {
		return server.QueryResponse{}, 0, server.OneOp(err)
	}
	return res.Responses[0], res.WireBytes, nil
}

// RemoveOne: see InsertOne.
func RemoveOne(ctx context.Context, batch func(context.Context, crypt.Token, []server.RemoveOp) error, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return server.OneOp(batch(ctx, tok, []server.RemoveOp{{List: list, Sealed: sealed}}))
}

// Local is the in-process transport.
type Local struct {
	S *server.Server
}

// Login implements Transport.
func (l Local) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	return l.S.Login(ctx, user)
}

// Insert implements Transport.
func (l Local) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return InsertOne(ctx, l.InsertBatch, tok, list, el)
}

// Query implements Transport.
func (l Local) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return QueryOne(ctx, l.QueryBatch, toks, list, offset, count)
}

// Remove implements Transport.
func (l Local) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return RemoveOne(ctx, l.RemoveBatch, tok, list, sealed)
}

// QueryBatch implements Transport. Nothing is serialized in process,
// so the measured wire size is 0.
func (l Local) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	resps, err := l.S.QueryBatch(ctx, toks, queries)
	return BatchQueryResult{Responses: resps}, err
}

// InsertBatch implements Transport.
func (l Local) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	return l.S.InsertBatch(ctx, tok, ops)
}

// RemoveBatch implements Transport.
func (l Local) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	return l.S.RemoveBatch(ctx, tok, ops)
}

// DefaultHTTPTimeout caps one HTTP exchange when no custom client and
// no tighter context deadline is set: a hung or unreachable server
// fails the request instead of wedging the caller forever.
const DefaultHTTPTimeout = 30 * time.Second

// defaultHTTPClient backs HTTP transports whose Client field is nil.
// Unlike http.DefaultClient it carries a timeout, so the zero-config
// transport can never block indefinitely on a dead peer.
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// HTTP talks to a zerberd index server over its HTTP API: binary
// frames for the protocol messages (the /v2/query request and
// response, the /v2/insert and /v2/remove requests — server/wire.go),
// JSON for login and stats.
type HTTP struct {
	// BaseURL is the server root, e.g. "http://host:8021".
	BaseURL string
	// Client is the HTTP client; nil means a shared default with
	// DefaultHTTPTimeout. Inject one to tune pooling, TLS or the
	// overall per-exchange timeout. Per-request context deadlines are
	// honored either way and may fire earlier than the client timeout.
	Client *http.Client
	// Retry, when non-nil, makes the transport self-healing: transient
	// failures — 429/503 admission rejections on every operation, and
	// other 5xx or transport errors on idempotent ones — are re-sent
	// with capped exponential backoff and jitter, honoring server
	// Retry-After hints (see retry.go); a call marked FailsOver retries
	// only a 429. Nil disables retrying.
	Retry *RetryPolicy
	// AdminMAC authorizes the /v3/admin snapshot-transfer calls
	// (ShardAdmin); derive it with server.AdminMAC(secret). Empty means
	// admin calls fail with an authentication error — protocol
	// operations never need it.
	AdminMAC string
}

func (h HTTP) httpClient() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultHTTPClient
}

// maxResponseBytes bounds a protocol response body, the client-side
// mirror of the server's bound on a request: MaxBatchOps windows at
// 16 KiB each. The server is the adversary of this protocol, so neither
// its Content-Length nor the length of what it streams is trusted past
// the bound its call carries (admin calls carry a larger one).
const maxResponseBytes = server.MaxBatchOps * 16 << 10

const jsonContentType = "application/json"

// call is one HTTP request as doOnce sends it.
type call struct {
	method, path string
	body         []byte
	contentType  string // of body; unused without one
	admin        bool   // present the admin MAC
	maxResponse  int64  // bound on the answer's body
}

// exchange runs one logical request through the retry loop and returns
// the body of its 200 answer; error envelopes come back as errors. The
// request is bound to ctx (http.NewRequestWithContext), so cancellation
// aborts it even mid-flight or mid-backoff, and a context canceled
// mid-backoff surfaces as the context's error. With no policy installed
// it is exactly one attempt. idempotent widens the retry
// classification (see retry.go); only operations that are safe to
// re-send after an ambiguous failure may pass true.
func (h HTTP) exchange(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool) ([]byte, error) {
	c := call{method: method, path: path, body: body, contentType: contentType, maxResponse: maxResponseBytes}
	for retry := 0; ; retry++ {
		raw, resp, err := h.doOnce(ctx, c)
		if err == nil {
			return raw, nil
		}
		status, hint := 0, time.Duration(0)
		if resp != nil {
			status, hint = resp.StatusCode, retryAfter(resp.Header)
		}
		// A request whose connection was refused never reached a server:
		// re-sending it cannot apply it twice.
		safe := idempotent || dialFailed(err)
		if ctx.Err() != nil || h.Retry == nil || retry >= DefaultMaxRetries || !retryable(status, safe, failsOver(ctx)) {
			return nil, err
		}
		if serr := sleepCtx(ctx, delay(retry, hint)); serr != nil {
			return nil, fmt.Errorf("client: %s: canceled while backing off: %w", path, serr)
		}
	}
}

// doOnce is one attempt of a call: the only place this package sends a
// request and reads an answer. resp is the answer's status and headers
// (its body is consumed), or nil when the exchange failed below HTTP or
// the answer broke the call's bound; a non-200 answer comes back as
// both resp and the error its envelope decodes to. The body is read
// once, into a buffer of its own that what the caller decodes from it
// may alias.
func (h HTTP) doOnce(ctx context.Context, c call) (raw []byte, resp *http.Response, err error) {
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, h.BaseURL+c.path, rd)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %s: %w", c.path, err)
	}
	if c.body != nil {
		req.Header.Set("Content-Type", c.contentType)
	}
	if c.admin {
		req.Header.Set("X-Zerber-Admin", h.AdminMAC)
	}
	resp, err = h.httpClient().Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %s: %w", c.path, err)
	}
	defer resp.Body.Close()
	if resp.ContentLength > c.maxResponse {
		return nil, nil, fmt.Errorf("client: %s: server announces a %d-byte response, over the %d-byte bound", c.path, resp.ContentLength, c.maxResponse)
	}
	raw, err = server.ReadBody(io.LimitReader(resp.Body, c.maxResponse+1), nil, resp.ContentLength)
	if err != nil {
		return nil, nil, fmt.Errorf("client: %s: reading response: %w", c.path, err)
	}
	if int64(len(raw)) > c.maxResponse {
		return nil, nil, fmt.Errorf("client: %s: response exceeds the %d-byte bound", c.path, c.maxResponse)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp, h.decodeError(c.path, resp.StatusCode, raw)
	}
	return raw, resp, nil
}

// postJSON is exchange for an idempotent POST with a JSON body.
func (h HTTP) postJSON(ctx context.Context, path string, in interface{}) ([]byte, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return h.exchange(ctx, http.MethodPost, path, body, jsonContentType, true)
}

func decodeJSON(path string, raw []byte, out interface{}) error {
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: %s: decoding response: %w", path, err)
	}
	return nil
}

// decodeError turns a non-200 response into an error. Every endpoint
// answers with the structured {code, error, index} envelope, whose code
// is mapped back onto the server sentinel errors, so errors.Is behaves
// identically over HTTP and in process.
func (h HTTP) decodeError(path string, status int, raw []byte) error {
	var env server.ErrorV2
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == "" {
		return fmt.Errorf("client: %s: server status %d: %s", path, status, raw)
	}
	if sentinel := server.SentinelForCode(env.Code); sentinel != nil {
		err := fmt.Errorf("%w (remote: %s)", sentinel, env.Error)
		if env.Index != nil {
			return &server.BatchError{Index: *env.Index, Err: err}
		}
		return err
	}
	return fmt.Errorf("client: %s: server status %d: %s", path, status, env.Error)
}

// Login implements Transport.
func (h HTTP) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	raw, err := h.postJSON(ctx, "/v1/login", server.LoginRequest{User: user})
	if err != nil {
		return nil, err
	}
	var out server.LoginResponse
	if err := decodeJSON("/v1/login", raw, &out); err != nil {
		return nil, err
	}
	return out.Tokens, nil
}

// Insert implements Transport.
func (h HTTP) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return InsertOne(ctx, h.InsertBatch, tok, list, el)
}

// Query implements Transport.
func (h HTTP) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return QueryOne(ctx, h.QueryBatch, toks, list, offset, count)
}

// Remove implements Transport.
func (h HTTP) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return RemoveOne(ctx, h.RemoveBatch, tok, list, sealed)
}

// QueryBatch implements Transport over POST /v2/query. WireBytes is
// the measured response body size. The decoded windows alias the one
// buffer the body was read into (nothing else holds it), so a caller
// that keeps a payload keeps the whole body alive: copy at the point of
// retention, as the cluster router's window cache does.
//
// The shape of the answer is checked here, proved or not: one window
// per sub-query, none longer than its sub-query asked for.
func (h HTTP) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (BatchQueryResult, error) {
	raw, err := h.exchange(ctx, http.MethodPost, "/v2/query", server.AppendQueryRequest(nil, toks, queries), server.FrameContentType, true)
	if err != nil {
		return BatchQueryResult{}, err
	}
	resps, err := server.DecodeQueryResponse(raw)
	if err != nil {
		return BatchQueryResult{}, fmt.Errorf("client: /v2/query: decoding response: %w", err)
	}
	if len(resps) != len(queries) {
		return BatchQueryResult{}, fmt.Errorf("client: /v2/query: %d responses for %d queries", len(resps), len(queries))
	}
	for i := range resps {
		if n := len(resps[i].Elements); n > queries[i].Count {
			return BatchQueryResult{}, fmt.Errorf("client: /v2/query: window %d holds %d elements, %d were asked for", i, n, queries[i].Count)
		}
	}
	return BatchQueryResult{Responses: resps, WireBytes: len(raw)}, nil
}

// InsertBatch implements Transport over POST /v2/insert.
func (h HTTP) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	_, err := h.exchange(ctx, http.MethodPost, "/v2/insert", server.AppendInsertRequest(nil, tok, ops), server.FrameContentType, false)
	return err
}

// RemoveBatch implements Transport over POST /v2/remove.
func (h HTTP) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	_, err := h.exchange(ctx, http.MethodPost, "/v2/remove", server.AppendRemoveRequest(nil, tok, ops), server.FrameContentType, false)
	return err
}

// Stats fetches GET /v2/stats: totals, per-list element counts, the
// storage backend name, and — on an instrumented server — the ops
// section. It is not part of Transport — it is an administrative call,
// not a protocol operation. It rides the same retry loop as the
// protocol operations (a GET is idempotent).
func (h HTTP) Stats(ctx context.Context) (server.StatsV2Response, error) {
	return h.stats(ctx, "/v2/stats")
}

// StatsRoots is Stats plus each list's Merkle commitment (GET
// /v2/stats?roots=1): ListStat.Version and the full Root digest.
// An audit call — the server materializes every list's commitment to
// answer it.
func (h HTTP) StatsRoots(ctx context.Context) (server.StatsV2Response, error) {
	return h.stats(ctx, "/v2/stats?roots=1")
}

func (h HTTP) stats(ctx context.Context, path string) (server.StatsV2Response, error) {
	raw, err := h.exchange(ctx, http.MethodGet, path, nil, "", true)
	if err != nil {
		return server.StatsV2Response{}, err
	}
	var out server.StatsV2Response
	if err := decodeJSON(path, raw, &out); err != nil {
		return server.StatsV2Response{}, err
	}
	return out, nil
}

var _ Transport = Local{}
var _ Transport = HTTP{}
