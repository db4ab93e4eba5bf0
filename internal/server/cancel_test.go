package server

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// newCancelServer builds a server holding a few lists and returns it
// with a logged-in user's tokens.
func newCancelServer(t *testing.T) (*Server, []crypt.Token) {
	t.Helper()
	s := New([]byte("ctx-secret"), time.Hour)
	s.RegisterUser("u", 0)
	toks, err := s.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	for list := 0; list < 8; list++ {
		el := StoredElement{Sealed: []byte{byte(list)}, TRS: 0.5, Group: 0}
		if err := insertOne(context.Background(), s, toks[0], zerber.ListID(list), el); err != nil {
			t.Fatal(err)
		}
	}
	return s, toks
}

// TestServerMethodsPreCanceledContext verifies every request-serving
// method rejects an already-canceled context with context.Canceled
// rather than doing work.
func TestServerMethodsPreCanceledContext(t *testing.T) {
	s, toks := newCancelServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.Login(ctx, "u"); !errors.Is(err, context.Canceled) {
		t.Errorf("Login err = %v", err)
	}
	el := StoredElement{Sealed: []byte{200}, TRS: 0.1, Group: 0}
	if err := insertOne(ctx, s, toks[0], 0, el); !errors.Is(err, context.Canceled) {
		t.Errorf("Insert err = %v", err)
	}
	if _, err := queryOne(ctx, s, toks, 0, 0, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("Query err = %v", err)
	}
	if err := removeOne(ctx, s, toks[0], 0, []byte{0}); !errors.Is(err, context.Canceled) {
		t.Errorf("Remove err = %v", err)
	}
	if _, err := s.QueryBatch(ctx, toks, []ListQuery{{List: 0, Offset: 0, Count: 10}}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatch err = %v", err)
	}
	if err := s.InsertBatch(ctx, toks[0], []InsertOp{{List: 0, Element: el}}); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertBatch err = %v", err)
	}
	if err := s.RemoveBatch(ctx, toks[0], []RemoveOp{{List: 0, Sealed: []byte{0}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("RemoveBatch err = %v", err)
	}
	if _, err := s.StatsV2(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("StatsV2 err = %v", err)
	}
	// Sanity: the index was untouched by the canceled writes.
	if n := s.NumElements(); n != 8 {
		t.Fatalf("canceled operations changed the index: %d elements, want 8", n)
	}
}

// TestQueryBatchSubErrorStillPrecise confirms the sibling-abort path
// keeps reporting a real sub-query failure with a batch index rather
// than masking it as a cancellation.
func TestQueryBatchSubErrorStillPrecise(t *testing.T) {
	s, toks := newCancelServer(t)
	queries := []ListQuery{
		{List: 0, Offset: 0, Count: 10},
		{List: 999, Offset: 0, Count: 10}, // unknown list
		{List: 1, Offset: 0, Count: 10},
	}
	_, err := s.QueryBatch(context.Background(), toks, queries)
	if !errors.Is(err, ErrUnknownList) {
		t.Fatalf("QueryBatch err = %v, want ErrUnknownList", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("failure not attributed to op 1: %v", err)
	}
}

// gatedBackend parks every Query until release is closed, announcing
// each arrival on entered: a request that is provably in flight.
type gatedBackend struct {
	store.Backend
	entered chan struct{}
	release chan struct{}
}

func (b gatedBackend) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.Query(list, allowed, offset, count)
}

// recordingHandler keeps every log record's level and message.
type recordingHandler struct {
	mu      sync.Mutex
	records []slog.Record
}

func (h *recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *recordingHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *recordingHandler) WithGroup(string) slog.Handler            { return h }
func (h *recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records = append(h.records, r)
	return nil
}

// TestClientGoneIsNotAServerError: a client that cancels mid-QueryBatch
// (a hedge's loser, an abandoned search) is answered 499 — counted
// under its own code, logged at Debug — not 500 "internal" at Warn.
func TestClientGoneIsNotAServerError(t *testing.T) {
	backend := gatedBackend{Backend: store.NewMemory(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewWithBackend([]byte("ctx-secret"), time.Hour, backend)
	s.RegisterUser("u", 0)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	logs := &recordingHandler{}
	s.SetLogger(slog.New(logs))
	toks, err := s.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(context.Background(), s, toks[0], 1, StoredElement{Sealed: []byte{1}, TRS: 0.5}); err != nil {
		t.Fatal(err)
	}
	// The wrapper publishes the server-side request context, so the
	// test can wait for the server to have noticed the disconnect, and
	// reports when the whole middleware stack has returned.
	h := s.Handler()
	serverCtx := make(chan context.Context, 1)
	served := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverCtx <- r.Context()
		h.ServeHTTP(w, r)
		close(served)
	}))
	defer ts.Close()

	body := AppendQueryRequest(nil, toks, []ListQuery{{List: 1, Count: 10}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientDone <- err
	}()
	<-backend.entered // the sub-query is running
	cancel()          // the client goes away
	if err := <-clientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want context.Canceled", err)
	}
	<-(<-serverCtx).Done() // the server saw the connection drop
	close(backend.release)
	<-served

	endpoint := obs.Label{Name: "endpoint", Value: "/v2/query"}
	count := func(code string) uint64 {
		return reg.Counter(MetricHTTPRequestsTotal, httpRequestsHelp, endpoint, obs.Label{Name: "code", Value: code}).Value()
	}
	if got := count("499"); got != 1 {
		t.Errorf("code=499 counted %d times, want 1", got)
	}
	var scrape bytes.Buffer
	reg.WritePrometheus(&scrape)
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, MetricHTTPRequestsTotal) && strings.Contains(line, `code="5`) {
			t.Errorf("a cancelled request produced a 5xx sample: %s", line)
		}
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	sawDebug := false
	for _, r := range logs.records {
		if r.Level >= slog.LevelWarn {
			t.Errorf("a cancelled request logged at %v: %s", r.Level, r.Message)
		}
		if r.Level == slog.LevelDebug && r.Message == "client went away" {
			sawDebug = true
		}
	}
	if !sawDebug {
		t.Error(`no Debug "client went away" record`)
	}
}
