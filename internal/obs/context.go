package obs

import (
	"context"
	"encoding/hex"
	"log/slog"
	"math/rand/v2"
)

// Request-ID and logger propagation. The v3 API threads a
// context.Context through every layer already, so the request ID (and
// the logger the edge installed, if any) rides along for free: the
// HTTP middleware attaches them once per request, and any layer below
// logs a correlated line through Logger(ctx) without knowing where the
// request entered. The logger is bound to the ID only when asked for,
// so a request that logs nothing pays nothing for it.

type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyLogger
)

// NewRequestID returns a fresh 16-hex-char request ID. IDs are random
// (not sequential) so two shards' logs can be merged without
// collisions, but they are identifiers, not secrets — math/rand is
// deliberate, the hot path should not drain the kernel entropy pool.
func NewRequestID() string {
	var b [8]byte
	v := rand.Uint64()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestID returns the context's request ID, or "" if none was
// attached.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// WithLogger attaches the logger Logger(ctx) derives from.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, ctxKeyLogger, l)
}

// Logger returns the context's logger, falling back to slog.Default()
// so callers can always log unconditionally, bound to the context's
// request ID when it carries one.
func Logger(ctx context.Context) *slog.Logger {
	l, _ := ctx.Value(ctxKeyLogger).(*slog.Logger)
	if l == nil {
		l = slog.Default()
	}
	if id := RequestID(ctx); id != "" {
		return l.With("request_id", id)
	}
	return l
}
