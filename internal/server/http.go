package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/obs"
)

// HTTP transport: a thin layer over the in-process API, so the index
// server can be outsourced onto a remote host (cmd/zerberd) and
// exercised by clients over the network. Every handler threads the
// request's context into the server call, so a disconnecting client
// (or a cmd/zerberd drain timeout) cancels the server-side work it
// started; such a request is answered 499, not as a server error.
//
// There is one wire generation. Every operation is a batch — a
// single-list call is a batch of one — and every rejection is the
// structured JSON {code, error, index} envelope (see DESIGN.md "Wire
// protocol" for the error-code registry). The protocol messages —
// queries, their answers, inserts and removes — are binary frames
// (wire.go); a JSON body there is refused as a bad request. Login,
// stats and the error envelope are JSON. Login keeps its historical /v1
// path; nothing else is served there.
//
//	POST /v1/login   {"user": "john"}                     -> {"tokens": [...]}
//	POST /v2/query   query-request frame                  -> query-response frame
//	POST /v2/insert  insert-request frame                 -> (empty)
//	POST /v2/remove  remove-request frame                 -> (empty)
//	GET  /v2/stats   -> {"lists","elements","backend","per_list":[{list,elements}...]}

// LoginRequest is the /v1/login payload.
type LoginRequest struct {
	User string `json:"user"`
}

// LoginResponse carries the issued group tokens.
type LoginResponse struct {
	Tokens []crypt.Token `json:"tokens"`
}

// StatsV2Response is the /v2/stats payload.
type StatsV2Response struct {
	Lists    int        `json:"lists"`
	Elements int        `json:"elements"`
	Backend  string     `json:"backend"`
	PerList  []ListStat `json:"per_list"`
	// Ops carries the operational signals (uptime, query latency
	// quantiles, admission counters); absent when no metrics registry
	// is installed. `zerber status` renders it.
	Ops *OpsStats `json:"ops,omitempty"`
}

// ErrorV2 is the structured error envelope every endpoint answers a
// rejection with: a machine-readable code from the registry below, the
// human-readable message, and — for batch failures — the index of the
// offending operation.
type ErrorV2 struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	Index *int   `json:"index,omitempty"`
}

// Wire error codes. The HTTP client transport maps them back onto the
// sentinel errors, so in-process and remote callers observe identical
// error identities.
const (
	CodeBadToken     = "bad_token"
	CodeTokenExpired = "token_expired"
	CodeForbidden    = "forbidden"
	CodeUnknownUser  = "unknown_user"
	CodeUnknownList  = "unknown_list"
	CodeNotFound     = "not_found"
	CodeBadRequest   = "bad_request"
	CodeRateLimited  = "rate_limited"
	CodeOverloaded   = "overloaded"
	CodeInternal     = "internal"
)

// errorCodes is the one registry of wire errors: each sentinel with its
// code and HTTP status, in match order — ErrTokenExpired wraps ErrAuth,
// so it comes first. An error matching none is CodeInternal, 500.
var errorCodes = []struct {
	err    error
	code   string
	status int
}{
	{ErrTokenExpired, CodeTokenExpired, http.StatusUnauthorized},
	{ErrAuth, CodeBadToken, http.StatusUnauthorized},
	{ErrForbidden, CodeForbidden, http.StatusForbidden},
	{ErrUnknownUser, CodeUnknownUser, http.StatusNotFound},
	{ErrUnknownList, CodeUnknownList, http.StatusNotFound},
	{ErrNotFound, CodeNotFound, http.StatusNotFound},
	{ErrBadRequest, CodeBadRequest, http.StatusBadRequest},
	{ErrRateLimited, CodeRateLimited, http.StatusTooManyRequests},
	{ErrOverloaded, CodeOverloaded, http.StatusServiceUnavailable},
}

// classify finds err's registry entry.
func classify(err error) (code string, status int) {
	for _, e := range errorCodes {
		if errors.Is(err, e.err) {
			return e.code, e.status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// ErrorCode maps a server error onto its wire code.
func ErrorCode(err error) string {
	code, _ := classify(err)
	return code
}

// IsFault reports whether an operation's error indicts the member that
// answered (or failed to): transport failures and anything else
// without a registered code map to CodeInternal, and CodeOverloaded is
// a member saying it cannot keep up. Every other code is a
// deterministic answer any healthy member would give. This is the one
// statement of that policy; the replica set's failover and the
// router's shard health both call it.
func IsFault(err error) bool {
	if err == nil {
		return false
	}
	switch ErrorCode(err) {
	case CodeInternal, CodeOverloaded:
		return true
	}
	return false
}

// SentinelForCode is ErrorCode's inverse: the sentinel error a wire
// code stands for, or nil for internal/unknown codes.
func SentinelForCode(code string) error {
	for _, e := range errorCodes {
		if e.code == code {
			return e.err
		}
	}
	return nil
}

// Handler returns the HTTP API for the server. Every endpoint runs
// under the ops middleware (instrument): a request ID is generated,
// echoed as X-Request-Id and carried in the context (obs.Logger binds
// it to any line a layer below logs), the in-flight bound sheds excess
// load before bodies are decoded, and — with a registry installed via
// SetObs (call it before Handler) — per-endpoint latency histograms and
// status-code counters are recorded. GET /metrics then serves the registry in Prometheus
// text exposition format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, path string, h http.HandlerFunc) {
		mux.Handle(method+" "+path, s.instrument(path, h))
	}
	handle("POST", "/v1/login", func(w http.ResponseWriter, r *http.Request) {
		var req LoginRequest
		if !decode(w, r, &req, maxRequestBytes) {
			return
		}
		toks, err := s.Login(r.Context(), req.User)
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, LoginResponse{Tokens: toks})
	})
	handle("POST", "/v2/query", frameHandler(func(ctx context.Context, body []byte) ([]byte, error) {
		toks, queries, err := DecodeQueryRequest(body)
		if err != nil {
			return nil, err
		}
		resps, err := s.QueryBatch(ctx, toks, queries)
		if err != nil {
			return nil, err
		}
		// Nothing in the windows aliases the request, so its buffer takes
		// the answer.
		return AppendQueryResponse(body[:0], resps), nil
	}))
	handle("POST", "/v2/insert", frameHandler(func(ctx context.Context, body []byte) ([]byte, error) {
		tok, ops, err := DecodeInsertRequest(body)
		if err != nil {
			return nil, err
		}
		return nil, s.InsertBatch(ctx, tok, ops)
	}))
	handle("POST", "/v2/remove", frameHandler(func(ctx context.Context, body []byte) ([]byte, error) {
		tok, ops, err := DecodeRemoveRequest(body)
		if err != nil {
			return nil, err
		}
		return nil, s.RemoveBatch(ctx, tok, ops)
	}))
	handle("GET", "/v2/stats", func(w http.ResponseWriter, r *http.Request) {
		// ?roots=1 opts into per-list Merkle roots: an audit signal
		// that materializes every list's commitment, so it is never
		// paid for by plain monitoring scrapes.
		stats := s.StatsV2
		if r.URL.Query().Get("roots") == "1" {
			stats = s.StatsV2Roots
		}
		st, err := stats(r.Context())
		if err != nil {
			writeErr(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	// v3 admin plane: snapshot transfer for migration and replica
	// resync. MAC-gated (AdminMAC), toggleable via SetAdminEnabled.
	s.registerAdmin(handle)
	if reg := s.Obs(); reg != nil {
		// Deliberately outside the middleware: scrapes must not be
		// shed, must not skew the latency families, and need no
		// request-scoped logging.
		mux.Handle("GET /metrics", reg.Handler())
	}
	return mux
}

// statusRecorder captures the response status for the middleware's
// metrics and access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument is the per-endpoint ops middleware; see Handler. endpoint
// is the route path — the only identity the metrics and logs carry
// (never a list ID, term or user name).
func (s *Server) instrument(endpoint string, next http.HandlerFunc) http.Handler {
	endpointLabel := obs.Label{Name: "endpoint", Value: endpoint}
	// Pre-create the endpoint's families so a scrape sees them (at
	// zero) from boot, not from first traffic — the CI smoke test
	// greps a freshly started server. The handles serve every request
	// while the registry stays the one they were created in.
	var reg *obs.Registry
	var latency *obs.Histogram
	var served *obs.Counter
	if m := s.met.Load(); m != nil {
		reg = m.reg
		latency = reg.Histogram(MetricHTTPRequestSeconds, httpLatencyHelp, nil, endpointLabel)
		served = reg.Counter(MetricHTTPRequestsTotal, httpRequestsHelp, endpointLabel, obs.Label{Name: "code", Value: "200"})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Drain whatever the handler (or a shed rejection) left unread
		// so the connection can be reused; rate-limited requests in
		// particular are refused before their bodies are decoded.
		defer func() { _, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 1<<20)) }()
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		m := s.met.Load()
		if m != nil {
			m.inFlight.Inc()
			defer m.inFlight.Dec()
		}
		id := obs.NewRequestID()
		w.Header().Set("X-Request-Id", id)
		// Layers below derive a logger bound to the request ID from the
		// context (obs.Logger); nothing binds one unless a line is logged.
		ctx := obs.WithRequestID(r.Context(), id)
		if l := s.logger.Load(); l != nil {
			ctx = obs.WithLogger(ctx, l)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if max := s.admissionMaxInFlight(); max > 0 && n > int64(max) {
			if m != nil {
				m.shed.Inc()
			}
			writeErr(rec, r, withRetryHint(fmt.Errorf("%w: %d requests already in flight", ErrOverloaded, max), time.Second))
		} else {
			next(rec, r.WithContext(ctx))
		}
		elapsed := time.Since(start)
		if m != nil {
			h, c := latency, served
			if m.reg != reg {
				h = m.reg.Histogram(MetricHTTPRequestSeconds, httpLatencyHelp, nil, endpointLabel)
			}
			if m.reg != reg || rec.status != http.StatusOK {
				c = m.reg.Counter(MetricHTTPRequestsTotal, httpRequestsHelp, endpointLabel,
					obs.Label{Name: "code", Value: strconv.Itoa(rec.status)})
			}
			h.Observe(elapsed.Seconds())
			c.Inc()
		}
		level, msg := slog.LevelDebug, "request served"
		switch {
		case rec.status == statusClientClosed:
			msg = "client went away"
		case rec.status >= 500:
			level, msg = slog.LevelWarn, "request failed"
		case rec.status >= 400:
			level, msg = slog.LevelInfo, "request rejected"
		}
		if l := s.baseLogger(); l.Enabled(ctx, level) {
			l.Log(ctx, level, msg, "request_id", id, "endpoint", endpoint, "status", rec.status, "duration", elapsed)
		}
	})
}

const (
	httpLatencyHelp  = "HTTP request latency by endpoint"
	httpRequestsHelp = "HTTP requests by endpoint and status code"
)

// maxRequestBytes bounds a protocol request body — MaxBatchOps
// operations at 4 KiB each, far above a sealed posting element and its
// framing — because the body is decoded before the tokens inside it
// can be validated: unbounded, any peer could make the server buffer it.
const maxRequestBytes = MaxBatchOps * 4 << 10

// decode reads a JSON request body of at most limit bytes into dst,
// answering malformed, unknown-field and oversized bodies itself.
func decode(w http.ResponseWriter, r *http.Request, dst interface{}, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeErr(w, r, fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// frameBufs pools the buffers request frames are read into and
// response frames are encoded into.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// putFrameBuf returns a pooled buffer, in the (possibly regrown) form
// the caller ended up with. A buffer a rare huge batch grew is dropped
// instead, so the pool cannot pin megabytes per idle connection.
func putFrameBuf(bp *[]byte, buf []byte) {
	if cap(buf) > 1<<20 {
		return
	}
	*bp = buf[:0]
	frameBufs.Put(bp)
}

// frameHandler serves an endpoint whose request is a binary frame: the
// body, of at most maxRequestBytes, is read into a pooled buffer that
// goes back only once apply has returned and its answer is written,
// because what apply decodes from the body may alias it. apply may
// append its answer frame to body[:0]; a nil answer is an empty 200.
// An answer is one Write with Content-Length set, never chunked, and a
// steady-state exchange allocates no buffer.
func frameHandler(apply func(ctx context.Context, body []byte) (answer []byte, err error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		bp := frameBufs.Get().(*[]byte)
		body, err := ReadBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), *bp, r.ContentLength)
		var answer []byte
		defer func() {
			if answer != nil {
				body = answer // it grew out of body's storage
			}
			putFrameBuf(bp, body)
		}()
		if err != nil {
			err = fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
		} else {
			answer, err = apply(r.Context(), body)
		}
		if err != nil {
			writeErr(w, r, err)
			return
		}
		if answer == nil {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", FrameContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(answer) // a failed write is the peer's loss; nothing to answer it with
	}
}

// setRetryAfter adds the Retry-After header on admission rejections.
// The value is the server's own hint rounded up to whole seconds (the
// header's granularity), minimum 1. Every 429/503 path — login, batch,
// admin, shed — funnels through writeErr, so every such response
// carries the header.
func setRetryAfter(w http.ResponseWriter, err error, status int) {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return
	}
	secs := int64(1)
	if hint, ok := RetryAfterHint(err); ok {
		if s := int64(math.Ceil(hint.Seconds())); s > secs {
			secs = s
		}
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// statusClientClosed answers a request whose client went away before
// the answer was ready (nginx's 499). It is nobody's error: the access
// log records it at Debug and it is counted under its own code, so it
// shows in no 5xx rate.
const statusClientClosed = 499

func writeErr(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		// A cancelled search, a drained connection: the peer is gone, so there is nobody to read an envelope.
		w.WriteHeader(statusClientClosed)
		return
	}
	code, status := classify(err)
	env := ErrorV2{Code: code, Error: err.Error()}
	var be *BatchError
	if errors.As(err, &be) {
		idx := be.Index
		env.Index = &idx
	}
	setRetryAfter(w, err, status)
	writeJSON(w, status, env)
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
