package server

// FuzzV2Request hardens the protocol request surface: there is one
// decoder and one error writer, so one target covers all of it.
// Whatever bytes arrive at /v2/query, /v2/insert, /v2/remove or
// /v1/login — before any token in them has been checked — the handler
// must answer without panicking and never with a 5xx: every malformed,
// unauthorized or oversized request is the client's fault and says so.
// The committed corpus under testdata/fuzz holds a valid request per
// endpoint (tokens signed under the fixed secret and clock below) and
// the damaged shapes around them.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

var fuzzEndpoints = []string{"/v2/query", "/v2/insert", "/v2/remove", "/v1/login"}

// fuzzServer is a server whose tokens are reproducible — fixed secret,
// fixed clock — so the corpus files stay valid requests forever.
func fuzzServer() *Server {
	s := New([]byte("fuzz-secret"), time.Hour)
	s.SetClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	s.RegisterUser("fuzz", 0, 1)
	s.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil))) // rejections are the common case here
	return s
}

// fuzzSeeds returns one valid body per endpoint, in fuzzEndpoints
// order.
func fuzzSeeds(tb testing.TB, s *Server) [][]byte {
	toks, err := s.Login(context.Background(), "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	el := StoredElement{Sealed: []byte("payload"), TRS: 0.5, Group: 0}
	var out [][]byte
	for _, v := range []interface{}{
		QueryBatchRequest{Tokens: toks, Queries: []ListQuery{{List: 3, Count: 10}, {List: 4, Offset: 2, Count: 1, Proof: true}}},
		InsertBatchRequest{Token: toks[0], Ops: []InsertOp{{List: 3, Element: el}}},
		RemoveBatchRequest{Token: toks[0], Ops: []RemoveOp{{List: 3, Sealed: el.Sealed}}},
		LoginRequest{User: "fuzz"},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func FuzzV2Request(f *testing.F) {
	s := fuzzServer()
	h := s.Handler()
	for i, body := range fuzzSeeds(f, s) {
		f.Add(uint8(i), body)
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d to %q: %s", path, rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			var env ErrorV2
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" || env.Error == "" {
				t.Fatalf("%s answered %d without the error envelope: %s", path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
