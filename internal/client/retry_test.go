package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

func TestRetryDelayHonorsHintAndCap(t *testing.T) {
	if d := delay(0, 0); d <= 0 || d > DefaultBaseDelay {
		t.Fatalf("delay(0) = %v, want (0, %v]", d, DefaultBaseDelay)
	}
	// A server hint above the computed backoff wins...
	if d := delay(0, time.Second); d != time.Second {
		t.Fatalf("hinted delay = %v, want 1s", d)
	}
	// ...but never past the cap.
	if d := delay(0, 30*time.Second); d != DefaultMaxDelay {
		t.Fatalf("capped hinted delay = %v, want %v", d, DefaultMaxDelay)
	}
	// Deep retries saturate at the cap instead of overflowing.
	if d := delay(40, 0); d <= 0 || d > DefaultMaxDelay {
		t.Fatalf("delay(40) = %v, want (0, %v]", d, DefaultMaxDelay)
	}
}

func TestRetryAfterParsing(t *testing.T) {
	h := http.Header{}
	if d := retryAfter(h); d != 0 {
		t.Fatalf("absent header: %v", d)
	}
	h.Set("Retry-After", "3")
	if d := retryAfter(h); d != 3*time.Second {
		t.Fatalf("delta-seconds: %v", d)
	}
	h.Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
	if d := retryAfter(h); d <= 0 || d > 2*time.Second {
		t.Fatalf("http-date: %v", d)
	}
	h.Set("Retry-After", "soon")
	if d := retryAfter(h); d != 0 {
		t.Fatalf("garbage: %v", d)
	}
}

// flakyServer answers every request with `status` (and a Retry-After
// of 0 seconds, so the backoff is the policy's own) until `failures`
// requests have been served, then delegates to a healthy in-process
// server. Status 0 drops the connection instead: a transport error.
func flakyServer(t *testing.T, failures int, status int) (*httptest.Server, *server.Server, *atomic.Int64) {
	t.Helper()
	s := server.New([]byte("retry-secret"), time.Hour)
	s.RegisterUser("alice", 0)
	inner := s.Handler()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= int64(failures) {
			if status == 0 {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(server.ErrorV2{Code: server.CodeOverloaded, Error: "injected"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, s, &attempts
}

// TestRetry429Success asserts the transport rides out rate-limit
// rejections — on idempotent and on mutating operations alike, since
// admission refuses before execution.
func TestRetry429Success(t *testing.T) {
	ts, _, attempts := flakyServer(t, 2, http.StatusTooManyRequests)
	h := HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}
	toks, err := h.Login(context.Background(), "alice")
	if err != nil {
		t.Fatalf("login through 429s: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	attempts.Store(0) // rewind: the next op sees two failures again
	if err := h.InsertBatch(context.Background(), toks[0], []server.InsertOp{
		{List: 7, Element: server.StoredElement{Sealed: []byte{1, 2, 3}, Group: 0}},
	}); err != nil {
		t.Fatalf("mutation through 429s: %v", err)
	}
}

// TestRetry5xxIdempotentOnly asserts the idempotency split: a 500
// retries reads but fails mutations fast. A read marked FailsOver
// makes one attempt on every fault — a 500, a 503, a transport error —
// and still rides out a 429, which is not one.
func TestRetry5xxIdempotentOnly(t *testing.T) {
	ts, s, attempts := flakyServer(t, 2, http.StatusInternalServerError)
	s.RegisterUser("bob", 0)
	h := HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}
	if _, err := h.Login(context.Background(), "alice"); err != nil {
		t.Fatalf("idempotent op through 500s: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}

	toks, err := h.Login(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	attempts.Store(-3) // everything fails from here
	err = h.InsertBatch(context.Background(), toks[0], []server.InsertOp{
		{List: 7, Element: server.StoredElement{Sealed: []byte{1}, Group: 0}},
	})
	if err == nil {
		t.Fatal("mutation through 500 must fail")
	}
	if got := attempts.Load(); got != -2 {
		t.Fatalf("mutation was attempted %d times, want exactly 1", got+3)
	}

	for _, tc := range []struct {
		name    string
		status  int
		want    int64
		answers bool
	}{
		{"500", http.StatusInternalServerError, 1, false},
		{"503", http.StatusServiceUnavailable, 1, false},
		{"transport error", 0, 1, false},
		{"429", http.StatusTooManyRequests, 3, true},
	} {
		ts, _, attempts := flakyServer(t, 2, tc.status)
		h := HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}
		_, err := h.Login(FailsOver(context.Background()), "alice")
		if got := attempts.Load(); got != tc.want {
			t.Errorf("marked read on %s: %d attempts, want %d", tc.name, got, tc.want)
		}
		if (err == nil) != tc.answers {
			t.Errorf("marked read on %s: err = %v", tc.name, err)
		}
	}
}

// TestRetryMutationOnlyIfNeverSent: a mutation is re-sent after a
// failure to connect, which no server saw, and not after a connection
// that dropped mid-exchange, which one may have applied.
func TestRetryMutationOnlyIfNeverSent(t *testing.T) {
	op := []server.InsertOp{{List: 7, Element: server.StoredElement{Sealed: []byte{1}, Group: 0}}}

	// A closed port that opens 150 ms later: the insert is retried until
	// it connects, and applied once.
	s := server.New([]byte("retry-secret"), time.Hour)
	s.RegisterUser("alice", 0)
	toks, err := s.Login(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	opened := make(chan *httptest.Server, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			opened <- nil
			return
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		opened <- ts
	}()
	h := HTTP{BaseURL: "http://" + addr, Retry: DefaultRetryPolicy()}
	err = h.InsertBatch(context.Background(), toks[0], op)
	ts := <-opened
	if ts == nil {
		t.Skip("the port was taken before the server could listen on it")
	}
	defer ts.Close()
	if err != nil {
		t.Fatalf("insert against a port that opened: %v", err)
	}
	if st, err := s.StatsV2(context.Background()); err != nil || st.Elements != 1 {
		t.Fatalf("%d elements stored (%v), want the insert applied once", st.Elements, err)
	}

	// A connection dropped after the request was sent: not retried.
	flaky, _, attempts := flakyServer(t, 1, 0)
	h = HTTP{BaseURL: flaky.URL, Retry: DefaultRetryPolicy()}
	if err := h.InsertBatch(context.Background(), toks[0], op); err == nil {
		t.Fatal("insert through a dropped connection succeeded")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("insert through a dropped connection sent %d times, want 1", got)
	}
}

// TestRetryNonRetryable4xxFastFail asserts application rejections are
// not retried and keep their sentinel identity.
func TestRetryNonRetryable4xxFastFail(t *testing.T) {
	ts, _, attempts := flakyServer(t, 0, 0)
	h := HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}
	toks, err := h.Login(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	attempts.Store(0)
	_, err = h.QueryBatch(context.Background(), toks, []server.ListQuery{{List: 999, Count: 5}})
	if !errors.Is(err, server.ErrUnknownList) {
		t.Fatalf("err = %v, want ErrUnknownList", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on 404)", got)
	}
}

// TestRetryCtxCancelMidBackoff cancels the caller's context while the
// transport sleeps on a long server hint (30 s, which the cap clamps to
// DefaultMaxDelay); the call must return the context error promptly
// instead of finishing the sleep.
func TestRetryCtxCancelMidBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.ErrorV2{Code: server.CodeOverloaded, Error: "always down"})
	}))
	defer ts.Close()
	h := HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := h.Login(ctx, "alice")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("returned only after %v; the backoff sleep ignored cancellation", elapsed)
	}
}

// TestSearchSurvivesTransient503 is the end-to-end self-healing check:
// a progressive search over HTTP keeps succeeding while the server
// injects transient 503s on query rounds, and its results match the
// in-process search exactly.
func TestSearchSurvivesTransient503(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 77)
	inner := h.srv.Handler()
	var queries atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every other query round fails once before succeeding.
		if strings.HasPrefix(r.URL.Path, "/v2/query") && queries.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(server.ErrorV2{Code: server.CodeOverloaded, Error: "injected blip"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote, err := New(HTTP{BaseURL: ts.URL, Retry: DefaultRetryPolicy()}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Login(context.Background(), "writer"); err != nil {
		t.Fatal(err)
	}
	terms := multiRoundQuery(h)
	want, _, err := h.cl.Search(context.Background(), terms, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Search and SearchStream both survive the blips.
	got, _, err := remote.Search(context.Background(), terms, 5)
	if err != nil {
		t.Fatalf("search through injected 503s: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	var rounds int
	for snap, err := range remote.SearchStream(context.Background(), terms, 5) {
		if err != nil {
			t.Fatalf("stream through injected 503s: %v", err)
		}
		rounds++
		_ = snap
	}
	if rounds == 0 {
		t.Fatal("stream yielded no snapshots")
	}
	if queries.Load() < 4 {
		t.Fatalf("only %d query requests seen — injection never exercised the retry path", queries.Load())
	}
}
