package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/zerber"
)

func post(t *testing.T, ts *httptest.Server, path string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, ts, path, b)
}

func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postQuery, postInsert and postRemove post a binary request frame.
func postQuery(t *testing.T, ts *httptest.Server, toks []crypt.Token, queries []ListQuery) *http.Response {
	t.Helper()
	return postRaw(t, ts, "/v2/query", AppendQueryRequest(nil, toks, queries))
}

func postInsert(t *testing.T, ts *httptest.Server, tok crypt.Token, ops []InsertOp) *http.Response {
	t.Helper()
	return postRaw(t, ts, "/v2/insert", AppendInsertRequest(nil, tok, ops))
}

func postRemove(t *testing.T, ts *httptest.Server, tok crypt.Token, ops []RemoveOp) *http.Response {
	t.Helper()
	return postRaw(t, ts, "/v2/remove", AppendRemoveRequest(nil, tok, ops))
}

// decodeWindows reads the response frame off a /v2/query answer.
func decodeWindows(t *testing.T, resp *http.Response) []QueryResponse {
	t.Helper()
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	windows, err := DecodeQueryResponse(raw)
	if err != nil {
		t.Fatalf("decoding query response frame: %v", err)
	}
	return windows
}

// decodeV2Err reads the error envelope off a response.
func decodeV2Err(t *testing.T, resp *http.Response) ErrorV2 {
	t.Helper()
	var env ErrorV2
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding v2 error envelope: %v", err)
	}
	resp.Body.Close()
	return env
}

func TestHTTPV2BatchedRoundTrip(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, "/v1/login", LoginRequest{User: "john"})
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tok := lr.Tokens[0]

	// Batched insert: four elements across two lists, one round-trip.
	r := postInsert(t, ts, tok, []InsertOp{
		{List: 1, Element: StoredElement{Sealed: []byte{1}, TRS: 0.9, Group: 0}},
		{List: 1, Element: StoredElement{Sealed: []byte{2}, TRS: 0.4, Group: 0}},
		{List: 2, Element: StoredElement{Sealed: []byte{3}, TRS: 0.7, Group: 0}},
		{List: 2, Element: StoredElement{Sealed: []byte{4}, TRS: 0.2, Group: 0}},
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batched insert status %d", r.StatusCode)
	}
	r.Body.Close()

	// Batched query: both lists in one exchange, responses in request
	// order, each ranked.
	r = postQuery(t, ts, lr.Tokens, []ListQuery{
		{List: 2, Offset: 0, Count: 10},
		{List: 1, Offset: 0, Count: 1},
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batched query status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("query answer Content-Type %q", ct)
	}
	if r.ContentLength < 0 {
		t.Fatal("query answer is chunked: no Content-Length")
	}
	windows := decodeWindows(t, r)
	if len(windows) != 2 {
		t.Fatalf("got %d responses, want 2", len(windows))
	}
	if got := windows[0]; len(got.Elements) != 2 || !got.Exhausted || got.Elements[0].TRS != 0.7 {
		t.Fatalf("list 2 response %+v", got)
	}
	if got := windows[1]; len(got.Elements) != 1 || got.Exhausted || got.Elements[0].TRS != 0.9 {
		t.Fatalf("list 1 response %+v", got)
	}

	// v2 stats: per-list counts and the backend name.
	sr, err := http.Get(ts.URL + "/v2/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsV2Response
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Backend != "memory" || st.Lists != 2 || st.Elements != 4 {
		t.Fatalf("stats %+v", st)
	}
	if len(st.PerList) != 2 || st.PerList[0].List != 1 || st.PerList[0].Elements != 2 ||
		st.PerList[1].List != 2 || st.PerList[1].Elements != 2 {
		t.Fatalf("per-list stats %+v", st.PerList)
	}

	// Batched remove drains list 1.
	r = postRemove(t, ts, tok, []RemoveOp{
		{List: 1, Sealed: []byte{1}},
		{List: 1, Sealed: []byte{2}},
	})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("batched remove status %d", r.StatusCode)
	}
	r.Body.Close()
	if s.ListLen(1) != 0 || s.ListLen(2) != 2 {
		t.Fatalf("after remove: list1=%d list2=%d", s.ListLen(1), s.ListLen(2))
	}
}

func TestHTTPV2StructuredErrors(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, "/v1/login", LoginRequest{User: "john"})
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tok := lr.Tokens[0]
	if err := insertOne(context.Background(), s, tok, 5, StoredElement{Sealed: []byte{9}, TRS: 0.5, Group: 0}); err != nil {
		t.Fatal(err)
	}

	// Expired token: authentic MAC, lifetime over -> token_expired.
	s.SetClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	r := postQuery(t, ts, lr.Tokens, []ListQuery{{List: 5, Count: 10}})
	if r.StatusCode != http.StatusUnauthorized {
		t.Fatalf("expired token status %d", r.StatusCode)
	}
	if env := decodeV2Err(t, r); env.Code != CodeTokenExpired {
		t.Fatalf("expired token code %q", env.Code)
	}
	s.SetClock(time.Now)

	// Forged token: bad_token.
	forged := tok
	forged.Group = 7
	r = postQuery(t, ts, []crypt.Token{forged}, []ListQuery{{List: 5, Count: 10}})
	if env := decodeV2Err(t, r); env.Code != CodeBadToken {
		t.Fatalf("forged token code %q", env.Code)
	}

	// Unknown list / bad request inside a batch carry the op index.
	r = postQuery(t, ts, lr.Tokens, []ListQuery{
		{List: 5, Count: 10},
		{List: 99, Count: 10},
	})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown list status %d", r.StatusCode)
	}
	if env := decodeV2Err(t, r); env.Code != CodeUnknownList || env.Index == nil || *env.Index != 1 {
		t.Fatalf("unknown list envelope %+v", env)
	}
}

// TestHTTPErrorMapping is the wire error table: every protocol
// endpoint, login included, answers a rejection with the one
// {code, error, index} envelope, and the retired single-operation
// routes are gone.
func TestHTTPErrorMapping(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	forged := toks[0]
	forged.Group = 5
	marshal := func(v interface{}) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A syntactically valid body past the bound (the sealed payload
	// alone outgrows it): it must be refused at the bound — the reader's
	// "too large" — not buffered and then parsed.
	oversize := AppendInsertRequest(nil, toks[0], []InsertOp{
		{List: 1, Element: StoredElement{Sealed: make([]byte, maxRequestBytes), Group: 0}},
	})

	cases := []struct {
		name   string
		path   string
		body   []byte
		status int
		code   string
		index  int    // -1: no index
		msg    string // the error message must contain it
	}{
		{"unknown user", "/v1/login", marshal(LoginRequest{User: "ghost"}), http.StatusNotFound, CodeUnknownUser, -1, ""},
		{"unknown list", "/v2/query", AppendQueryRequest(nil, toks, []ListQuery{{List: 9, Count: 5}}), http.StatusNotFound, CodeUnknownList, 0, ""},
		{"bad count", "/v2/query", AppendQueryRequest(nil, toks, []ListQuery{{List: 9, Count: 5}, {List: 9, Count: -1}}), http.StatusBadRequest, CodeBadRequest, 1, ""},
		{"empty payload", "/v2/insert", AppendInsertRequest(nil, toks[0], []InsertOp{{List: 1}}), http.StatusBadRequest, CodeBadRequest, 0, ""},
		{"empty batch", "/v2/remove", AppendRemoveRequest(nil, toks[0], nil), http.StatusBadRequest, CodeBadRequest, -1, ""},
		{"JSON insert", "/v2/insert", []byte(`{"token":{},"ops":[]}`), http.StatusBadRequest, CodeBadRequest, -1, "JSON, not a binary frame"},
		{"remove frame on insert", "/v2/insert", AppendRemoveRequest(nil, toks[0], []RemoveOp{{List: 1, Sealed: []byte{1}}}), http.StatusBadRequest, CodeBadRequest, -1, "kind"},
		{"forged token", "/v2/insert", AppendInsertRequest(nil, forged, []InsertOp{{List: 1, Element: StoredElement{Sealed: []byte{1}, Group: 5}}}), http.StatusUnauthorized, CodeBadToken, -1, ""},
		{"JSON query", "/v2/query", []byte(`{"tokens":[],"queries":[{"list":3,"count":1}]}`), http.StatusBadRequest, CodeBadRequest, -1, "JSON, not a binary frame"},
		{"malformed login", "/v1/login", []byte("{nope"), http.StatusBadRequest, CodeBadRequest, -1, ""},
		{"query frame on remove", "/v2/remove", AppendQueryRequest(nil, toks, []ListQuery{{List: 1, Count: 1}}), http.StatusBadRequest, CodeBadRequest, -1, "kind"},
		{"no token", "/v2/query", AppendQueryRequest(nil, nil, []ListQuery{{List: 1, Count: 1}}), http.StatusUnauthorized, CodeBadToken, -1, "no token"},
		{"oversized body", "/v2/insert", oversize, http.StatusBadRequest, CodeBadRequest, -1, "too large"},
	}
	for _, tc := range cases {
		r := postRaw(t, ts, tc.path, tc.body)
		if r.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, r.StatusCode, tc.status)
		}
		env := decodeV2Err(t, r)
		if env.Code != tc.code || env.Error == "" || !strings.Contains(env.Error, tc.msg) {
			t.Errorf("%s: envelope %+v, want code %q", tc.name, env, tc.code)
		}
		if got := env.Index; (got == nil) != (tc.index < 0) || (got != nil && *got != tc.index) {
			t.Errorf("%s: index %v, want %d", tc.name, got, tc.index)
		}
	}
	if s.NumElements() != 0 {
		t.Fatalf("rejected requests stored %d elements", s.NumElements())
	}

	// One wire generation: the single-operation routes no longer exist.
	for _, path := range []string{"/v1/insert", "/v1/query", "/v1/remove"} {
		r := postRaw(t, ts, path, []byte("{}"))
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (route retired)", path, r.StatusCode)
		}
	}
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/stats: status %d, want 404 (route retired)", sr.StatusCode)
	}
}

// TestQueryBatchWithoutTokens: a query that presents no token is
// refused as unauthenticated, in process and over HTTP, whether or not
// its list exists — an anonymous peer learns neither which lists exist
// nor their versions, roots or groups.
func TestQueryBatchWithoutTokens(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(context.Background(), s, toks[0], 4, StoredElement{Sealed: []byte{9}, TRS: 0.5, Group: 0}); err != nil {
		t.Fatal(err)
	}
	for _, list := range []zerber.ListID{4, 5} {
		queries := []ListQuery{{List: list, Count: 10, Proof: true}}
		if _, err := s.QueryBatch(context.Background(), nil, queries); !errors.Is(err, ErrAuth) || errors.Is(err, ErrTokenExpired) {
			t.Errorf("list %d in process: err = %v, want ErrAuth", list, err)
		}
		r := postQuery(t, ts, nil, queries)
		if r.StatusCode != http.StatusUnauthorized {
			t.Errorf("list %d over HTTP: status %d, want 401", list, r.StatusCode)
		}
		if env := decodeV2Err(t, r); env.Code != CodeBadToken || env.Index != nil {
			t.Errorf("list %d over HTTP: envelope %+v, want %s without an index", list, env, CodeBadToken)
		}
	}
}

func TestHTTPV2PartialFailureAtomic(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, "/v1/login", LoginRequest{User: "john"})
	var lr LoginResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Op 2 targets a group the token does not cover: the whole batch
	// must be rejected with its index and nothing applied.
	r := postInsert(t, ts, lr.Tokens[0], []InsertOp{
		{List: 1, Element: StoredElement{Sealed: []byte{1}, TRS: 0.9, Group: 0}},
		{List: 1, Element: StoredElement{Sealed: []byte{2}, TRS: 0.8, Group: 0}},
		{List: 2, Element: StoredElement{Sealed: []byte{3}, TRS: 0.7, Group: 5}},
	})
	if r.StatusCode != http.StatusForbidden {
		t.Fatalf("partial failure status %d", r.StatusCode)
	}
	env := decodeV2Err(t, r)
	if env.Code != CodeForbidden || env.Index == nil || *env.Index != 2 {
		t.Fatalf("partial failure envelope %+v", env)
	}
	if s.NumElements() != 0 {
		t.Fatalf("%d elements applied from a rejected batch", s.NumElements())
	}
}

func TestBatchErrorUnwraps(t *testing.T) {
	err := &BatchError{Index: 3, Err: ErrForbidden}
	if !errors.Is(err, ErrForbidden) {
		t.Fatal("BatchError does not unwrap to its sentinel")
	}
	if ErrorCode(err) != CodeForbidden {
		t.Fatalf("ErrorCode(BatchError) = %q", ErrorCode(err))
	}
	if !errors.Is(ErrTokenExpired, ErrAuth) {
		t.Fatal("ErrTokenExpired must unwrap to ErrAuth")
	}
}

func TestRemoveBatchDuplicatePayloadAtomic(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(context.Background(), s, toks[0], 3, StoredElement{Sealed: []byte{7}, TRS: 0.5, Group: 0}); err != nil {
		t.Fatal(err)
	}
	// Two ops name the single stored instance: the pre-flight must
	// reject the batch (index 1) without removing anything.
	err = s.RemoveBatch(context.Background(), toks[0], []RemoveOp{
		{List: 3, Sealed: []byte{7}},
		{List: 3, Sealed: []byte{7}},
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("duplicate-payload batch err = %v, want ErrNotFound", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("duplicate-payload batch err = %v, want index 1", err)
	}
	if s.ListLen(3) != 1 {
		t.Fatalf("rejected batch removed elements: list holds %d", s.ListLen(3))
	}
}

func TestBatchSizeCap(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]ListQuery, MaxBatchOps+1)
	for i := range queries {
		queries[i] = ListQuery{List: 1, Count: 1}
	}
	if _, err := s.QueryBatch(context.Background(), toks, queries); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized query batch err = %v, want ErrBadRequest", err)
	}
	ops := make([]InsertOp, MaxBatchOps+1)
	for i := range ops {
		ops[i] = InsertOp{List: 1, Element: StoredElement{Sealed: []byte{1}, Group: 0}}
	}
	if err := s.InsertBatch(context.Background(), toks[0], ops); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized insert batch err = %v, want ErrBadRequest", err)
	}
	if s.NumElements() != 0 {
		t.Fatal("oversized batch partially applied")
	}
}
