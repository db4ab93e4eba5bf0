package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/store"
)

// TestHTTPQueryIdenticalAfterRestart is the acceptance path for the
// durable backend: load a server over HTTP, tear it down, start a new
// server over the same data directory, and demand byte-identical
// /v2/query results.
func TestHTTPQueryIdenticalAfterRestart(t *testing.T) {
	dir := t.TempDir()
	query := func(ts *httptest.Server, toks LoginResponse) QueryResponse {
		t.Helper()
		resp := postQuery(t, ts, toks.Tokens, []ListQuery{{List: 4, Offset: 0, Count: 10}})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
		windows := decodeWindows(t, resp)
		if len(windows) != 1 {
			t.Fatalf("query response holds %d windows", len(windows))
		}
		return windows[0]
	}
	login := func(ts *httptest.Server) LoginResponse {
		t.Helper()
		resp := post(t, ts, "/v1/login", LoginRequest{User: "john"})
		defer resp.Body.Close()
		var lr LoginResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}
	boot := func() (*Server, *httptest.Server) {
		t.Helper()
		d, err := store.OpenDurable(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := NewWithBackend(secret, time.Hour, d)
		s.RegisterUser("john", 0, 1)
		return s, httptest.NewServer(s.Handler())
	}

	s, ts := boot()
	lr := login(ts)
	for i, trs := range []float64{0.9, 0.1, 0.5, 0.7} {
		resp := postInsert(t, ts, lr.Tokens[i%2], []InsertOp{{
			List: 4,
			Element: StoredElement{
				Sealed: []byte{byte(i), 0xEE},
				TRS:    trs,
				Group:  i % 2,
			},
		}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d status %d", i, resp.StatusCode)
		}
	}
	before := query(ts, lr)
	if len(before.Elements) != 4 || !before.Exhausted {
		t.Fatalf("pre-restart query: %+v", before)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart the daemon": new server, same data directory.
	s2, ts2 := boot()
	defer ts2.Close()
	defer s2.Close()
	after := query(ts2, login(ts2))
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("query results changed across restart:\nbefore %+v\nafter  %+v", before, after)
	}
}
