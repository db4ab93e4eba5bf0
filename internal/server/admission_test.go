package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

func TestRetryHintRoundTrip(t *testing.T) {
	err := withRetryHint(ErrRateLimited, 1500*time.Millisecond)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatal("hint wrapper must unwrap to the sentinel")
	}
	d, ok := RetryAfterHint(err)
	if !ok || d != 1500*time.Millisecond {
		t.Fatalf("hint = %v, %v", d, ok)
	}
	if _, ok := RetryAfterHint(ErrRateLimited); ok {
		t.Fatal("bare sentinel carries no hint")
	}
}

func TestRateLimiterFakeClock(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("alice", 0)
	now := time.Unix(1_000_000, 0)
	s.SetClock(func() time.Time { return now })
	s.SetAdmission(&AdmissionConfig{PerUserRate: 1, Burst: 2})

	ctx := context.Background()
	// Burst of 2, then the bucket is dry.
	for i := 0; i < 2; i++ {
		if _, err := s.Login(ctx, "alice"); err != nil {
			t.Fatalf("login %d within burst: %v", i, err)
		}
	}
	_, err := s.Login(ctx, "alice")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst login: %v", err)
	}
	hint, ok := RetryAfterHint(err)
	if !ok || hint <= 0 || hint > time.Second {
		t.Fatalf("hint = %v, %v; want (0, 1s]", hint, ok)
	}
	// One second refills one token at 1 op/s.
	now = now.Add(time.Second)
	if _, err := s.Login(ctx, "alice"); err != nil {
		t.Fatalf("login after refill: %v", err)
	}
	_, err = s.Login(ctx, "alice")
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second login after single refill: %v", err)
	}
	// Unknown users are rejected before the limiter, so garbage names
	// never grow the bucket table.
	if _, err := s.Login(ctx, "mallory"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user: %v", err)
	}
	// SetAdmission(nil) removes the limit.
	s.SetAdmission(nil)
	for i := 0; i < 10; i++ {
		if _, err := s.Login(ctx, "alice"); err != nil {
			t.Fatalf("login with limiter removed: %v", err)
		}
	}
}

func TestRateLimiterIsPerUser(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("alice", 0)
	s.RegisterUser("bob", 0)
	now := time.Unix(1_000_000, 0)
	s.SetClock(func() time.Time { return now })
	s.SetAdmission(&AdmissionConfig{PerUserRate: 1, Burst: 1})

	ctx := context.Background()
	if _, err := s.Login(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Login(ctx, "alice"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("alice over budget: %v", err)
	}
	// Bob has his own bucket.
	if _, err := s.Login(ctx, "bob"); err != nil {
		t.Fatalf("bob must not share alice's bucket: %v", err)
	}
}

// TestRateLimitHTTP asserts the 429 wire contract on every protocol
// endpoint, login included: status, rate_limited code, and a
// Retry-After header.
func TestRateLimitHTTP(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("alice", 0)
	now := time.Unix(1_000_000, 0)
	s.SetClock(func() time.Time { return now })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Log in before the limiter is armed, so the tokens are in hand.
	resp := post(t, ts, "/v1/login", LoginRequest{User: "alice"})
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("response carries no X-Request-Id")
	}

	s.SetAdmission(&AdmissionConfig{PerUserRate: 0.25, Burst: 1})

	checkLimited := func(t *testing.T, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429", resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
		var env ErrorV2
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Code != CodeRateLimited {
			t.Fatalf("code = %q, want %q", env.Code, CodeRateLimited)
		}
	}
	query := func() *http.Response { return postQuery(t, ts, lr.Tokens, []ListQuery{{List: 1, Count: 1}}) }

	// Spend the single burst token, then every path must answer 429.
	resp = query()
	resp.Body.Close() // 404 unknown list — the token was still spent

	checkLimited(t, query())
	checkLimited(t, post(t, ts, "/v1/login", LoginRequest{User: "alice"}))
	checkLimited(t, postInsert(t, ts, lr.Tokens[0], []InsertOp{
		{List: 1, Element: StoredElement{Sealed: []byte{1}, Group: 0}},
	}))
	checkLimited(t, postRemove(t, ts, lr.Tokens[0], []RemoveOp{
		{List: 1, Sealed: []byte{1}},
	}))

	// At 0.25 ops/s a dry bucket needs ~4s for the next token; the
	// hint must say so rather than defaulting to 1.
	resp = query()
	defer resp.Body.Close()
	if ra, _ := strconv.Atoi(resp.Header.Get("Retry-After")); ra < 2 {
		t.Fatalf("Retry-After = %q, want the limiter's own wait (>= 2s)", resp.Header.Get("Retry-After"))
	}
}

// TestLoadShedHTTP occupies the single in-flight slot with a request
// whose body never finishes decoding, then asserts further requests
// are shed with 503 + Retry-After before their bodies are read, and
// that completing the stuck request reopens admission.
func TestLoadShedHTTP(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("alice", 0)
	s.SetAdmission(&AdmissionConfig{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close() // before ts.Close, which waits for the stuck request: a failed test must not hang
	stuck := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", pr)
		if err != nil {
			stuck <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		stuck <- err
	}()

	// The stuck request holds the slot once its handler blocks in
	// decode. Probe only once it is in flight — a probe that arrives
	// first would see the stuck request shed instead, and nothing would
	// hold the slot afterwards — then poll until a probe is shed.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stuck request never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	var resp *http.Response
	for {
		var err error
		resp, err = http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("probe was never shed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q on shed response", resp.Header.Get("Retry-After"))
	}
	if env := decodeV2Err(t, resp); env.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", env.Code, CodeOverloaded)
	}
	// Shedding happens before routing reaches a handler, so login and
	// the admin plane answer it with the same envelope.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/login"},
		{http.MethodGet, "/v3/admin/digest"},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, http.NoBody)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d while saturated, want 503", probe.path, resp.StatusCode)
		}
		if env := decodeV2Err(t, resp); env.Code != CodeOverloaded {
			t.Fatalf("%s: shed code = %q, want %q", probe.path, env.Code, CodeOverloaded)
		}
	}

	// Unstick the occupying request (empty body -> 400, fine) and the
	// server must admit again.
	pw.Close()
	if err := <-stuck; err != nil {
		t.Fatalf("stuck request: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v2/stats")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still shedding after slot freed (status %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShedDrainsBody sends an oversized body into a saturated server
// over a reused connection: if the middleware failed to drain refused
// requests, the second request on the connection would stall or the
// transport would tear the connection down.
func TestShedDrainsBody(t *testing.T) {
	s := New(secret, time.Hour)
	s.SetAdmission(&AdmissionConfig{PerUserRate: 0.001, Burst: 1})
	s.RegisterUser("alice", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	toks, err := s.Login(context.Background(), "alice") // spends the burst token
	if err != nil {
		t.Fatal(err)
	}
	// Same client (connection pool) for both: the first 429's unread
	// body must not poison the keep-alive connection.
	for i := 0; i < 2; i++ {
		big := make([]InsertOp, 512)
		for j := range big {
			big[j] = InsertOp{List: 1, Element: StoredElement{Sealed: []byte{byte(j), 1, 2, 3}, Group: 0}}
		}
		resp := postInsert(t, ts, toks[0], big)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestAdmissionTableBound(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	fill := func() *admission {
		a := newAdmission(AdmissionConfig{PerUserRate: 1, Burst: 2})
		for i := range maxTrackedUsers {
			if err := a.admit(strconv.Itoa(i), start); err != nil {
				t.Fatalf("user %d: %v", i, err)
			}
		}
		return a
	}

	// Every bucket is still draining (one of two tokens spent): the
	// table must keep every user, none may be dropped while limited.
	a := fill()
	if err := a.admit("newcomer", start); err != nil {
		t.Fatal(err)
	}
	if got := len(a.buckets); got != maxTrackedUsers+1 {
		t.Fatalf("table holds %d users with every bucket draining, want %d", got, maxTrackedUsers+1)
	}

	// One second refills every bucket at 1 op/s: the idle users go.
	a = fill()
	if err := a.admit("newcomer", start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := len(a.buckets); got != 1 {
		t.Fatalf("table holds %d users after every bucket refilled, want 1", got)
	}
	if a.buckets["newcomer"] == nil {
		t.Fatal("the new user's bucket was swept")
	}
}
