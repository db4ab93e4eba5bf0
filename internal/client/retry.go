package client

// Self-healing HTTP transport: capped exponential backoff with jitter
// for transient failures, so a progressive search (or SearchStream)
// rides out a shard restart, an admission 429/503 or a dropped
// connection instead of surfacing it to the caller. exchange is the
// one retry loop, and its policy is the Default* constants.
//
// What retries is deliberately narrow:
//
//   - 429 and 503 always retry. This server's admission control
//     refuses before executing anything (the rate limiter runs before
//     the backend is touched, the load shedder before the body is
//     decoded), so repeating the request cannot double-apply it — and
//     the response carries the server's own Retry-After hint, which
//     the backoff honors.
//   - A failure to connect (a dial error: connection refused, no
//     route) retries for every operation: the request never left the
//     client, so no server can have applied it.
//   - Other 5xx and transport-level failures (reset, timeout) retry
//     only for idempotent operations (Login, Query, QueryBatch, Stats):
//     a mutation whose request may have reached the server cannot be
//     safely repeated.
//   - Everything else — 4xx application errors, malformed responses —
//     fails fast.
//   - A call marked FailsOver (a replica set's member read) retries
//     only the 429, which is not a fault; the set fails over on the rest.
//
// Backoff sleeps are context-aware: canceling the caller's context
// aborts a sleep immediately and returns the context's error.

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy is the transport's retry policy. It has no settings:
// the policy is the Default* constants, and a nil *RetryPolicy on HTTP
// disables retrying.
type RetryPolicy struct{}

// The retry policy: how many times a failed exchange is re-sent (the
// first attempt is not a retry), the backoff before the first retry
// (it doubles per retry), and the cap on the backoff and on a server's
// Retry-After hint.
const (
	DefaultMaxRetries = 4
	DefaultBaseDelay  = 100 * time.Millisecond
	DefaultMaxDelay   = 5 * time.Second
)

// DefaultRetryPolicy is the policy the CLI installs: survives a few
// seconds of shard unavailability without stretching a doomed call
// past ~10s.
func DefaultRetryPolicy() *RetryPolicy { return &RetryPolicy{} }

type failsOverKey struct{} // the context key of the FailsOver mark

// FailsOver marks ctx for a call whose caller moves to another server
// on a fault (server.IsFault): the transport then retries only a 429
// and returns a 503, another 5xx or a transport error at once.
func FailsOver(ctx context.Context) context.Context {
	return context.WithValue(ctx, failsOverKey{}, true)
}

// failsOver reports whether ctx carries the FailsOver mark.
func failsOver(ctx context.Context) bool { return ctx.Value(failsOverKey{}) != nil }

// delay computes the backoff before retry number `retry` (0-based):
// equal-jitter exponential growth from DefaultBaseDelay, raised to a
// server Retry-After hint when one was sent, capped at DefaultMaxDelay
// either way.
func delay(retry int, hint time.Duration) time.Duration {
	d := DefaultBaseDelay << uint(retry)
	if d > DefaultMaxDelay || d <= 0 { // <= 0: shift overflow
		d = DefaultMaxDelay
	}
	// Equal jitter: half deterministic, half uniform — desynchronizes
	// a fleet of clients hammering a recovering shard.
	d = d/2 + rand.N(d/2+1)
	return min(max(d, hint), DefaultMaxDelay)
}

// sleepCtx sleeps d or until the context is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter parses a Retry-After response header: delta-seconds or an
// HTTP date. 0 when absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// dialFailed reports whether err is a failure to connect, before any
// byte of the request was sent.
func dialFailed(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// retryable classifies one failed exchange. status 0 means the
// exchange failed below HTTP (transport error); idempotent means
// re-sending is safe — the operation is idempotent, or its request never
// connected; failsOver means the call carries the FailsOver mark.
func retryable(status int, idempotent, failsOver bool) bool {
	switch {
	case status == http.StatusTooManyRequests:
		// A rate limit is not a fault: another server would refuse too.
		return true
	case failsOver:
		return false
	case status == http.StatusServiceUnavailable:
		// Admission rejections: refused before execution, safe for
		// every operation.
		return true
	case status == 0, status >= 500:
		return idempotent
	}
	return false
}
