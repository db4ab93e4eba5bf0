package server

// Server-side admission control: per-user token-bucket rate limiting
// and load shedding. Admission answers before work is done — a
// rate-limited request costs one map lookup, a shed request is refused
// before its body is even decoded — so an overloaded server degrades
// by answering 429/503 with a Retry-After hint instead of queueing
// until every client times out. The self-healing client transport
// (internal/client) parses the hint and retries with backoff.
//
// Rate limiting is enforced inside the server operations (after token
// validation), so it covers in-process transports too; load shedding
// is enforced at the HTTP edge, where rejecting early is cheapest.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Admission errors. Both carry a Retry-After hint via RetryAfterHint;
// the HTTP layer maps them to 429/503 with a Retry-After header.
var (
	// ErrRateLimited reports that the authenticated user exceeded the
	// per-user request rate.
	ErrRateLimited = errors.New("server: per-user rate limit exceeded")
	// ErrOverloaded reports that the server shed the request because
	// too much work was already in flight.
	ErrOverloaded = errors.New("server: overloaded, request shed")
)

// retryHintError decorates an error with a suggested client backoff.
type retryHintError struct {
	err   error
	after time.Duration
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// withRetryHint wraps err with a Retry-After suggestion.
func withRetryHint(err error, after time.Duration) error {
	return &retryHintError{err: err, after: after}
}

// RetryAfterHint extracts the backoff suggestion attached to an
// admission error, if any.
func RetryAfterHint(err error) (time.Duration, bool) {
	var rh *retryHintError
	if errors.As(err, &rh) {
		return rh.after, true
	}
	return 0, false
}

// AdmissionConfig tunes the server's admission control. The zero
// value of each field disables the corresponding mechanism.
type AdmissionConfig struct {
	// PerUserRate is the sustained operations/second each
	// authenticated user may issue; <= 0 disables rate limiting. One
	// API call costs one token regardless of batch size — batching is
	// the encouraged behavior, so it is not taxed.
	PerUserRate float64
	// Burst is the token-bucket capacity (how far a user may briefly
	// exceed the sustained rate); <= 0 defaults to max(PerUserRate, 1).
	Burst float64
	// MaxInFlight bounds concurrently served HTTP requests; past it
	// new requests are shed with 503 before their bodies are decoded.
	// <= 0 disables shedding.
	MaxInFlight int
}

// maxTrackedUsers bounds the bucket table (defense against a flood of
// distinct names). When full, buckets that have refilled to capacity
// are swept — dropping a full bucket loses nothing.
const maxTrackedUsers = 16384

// bucket is one user's token bucket. Guarded by admission.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the installed admission state.
type admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[string]*bucket
}

func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.PerUserRate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &admission{cfg: cfg, buckets: make(map[string]*bucket)}
}

// admit spends one token from the user's bucket, or returns
// ErrRateLimited with a hint for when the next token accrues. The
// caller supplies the clock reading (every operation has already read
// the server clock for token validation — re-reading it here would be
// a second clock call on the hot path).
func (a *admission) admit(user string, now time.Time) error {
	if a == nil || a.cfg.PerUserRate <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[user]
	if b == nil {
		if len(a.buckets) >= maxTrackedUsers {
			a.sweepLocked(now)
		}
		b = &bucket{tokens: a.cfg.Burst, last: now}
		a.buckets[user] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * a.cfg.PerUserRate
		if b.tokens > a.cfg.Burst {
			b.tokens = a.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / a.cfg.PerUserRate * float64(time.Second))
	return withRetryHint(fmt.Errorf("%w: user over %g ops/s", ErrRateLimited, a.cfg.PerUserRate), wait)
}

// sweepLocked drops buckets that have refilled to capacity — their
// owners are idle, and a re-created bucket starts full anyway, so
// nothing observable is lost. If every user is active the table stays
// over target until someone goes idle; tracked users are
// authenticated, so the cardinality is the registered-user count, not
// attacker-controlled.
func (a *admission) sweepLocked(now time.Time) {
	for user, b := range a.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*a.cfg.PerUserRate >= a.cfg.Burst-1e-9 {
			delete(a.buckets, user)
		}
	}
}

// SetAdmission installs (or, with nil config, removes) admission
// control. Safe to call while serving; requests observe the old or
// the new policy, never a mix.
func (s *Server) SetAdmission(cfg *AdmissionConfig) {
	if cfg == nil {
		s.adm.Store(nil)
		return
	}
	s.adm.Store(newAdmission(*cfg))
}

// admit applies the per-user rate limit for one authenticated API
// call; the rejection is also counted on the ops metrics. now is the
// clock reading the operation already took for token validation —
// SetClock (tests) applies through it.
func (s *Server) admit(user string, now time.Time) error {
	a := s.adm.Load()
	if a == nil {
		return nil
	}
	if err := a.admit(user, now); err != nil {
		if m := s.met.Load(); m != nil {
			m.rateLimited.Inc()
		}
		return err
	}
	return nil
}

// admissionMaxInFlight reports the shed bound, or 0 when shedding is
// off (no admission installed or MaxInFlight unset).
func (s *Server) admissionMaxInFlight() int {
	a := s.adm.Load()
	if a == nil {
		return 0
	}
	return a.cfg.MaxInFlight
}
