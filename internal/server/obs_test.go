package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// failingBackend fails every Query: a 500 the middleware logs at Warn.
type failingBackend struct{ store.Backend }

func (failingBackend) Query(zerber.ListID, map[int]bool, int, int) (store.QueryResult, error) {
	return store.QueryResult{}, errors.New("disk on fire")
}

// The middleware's lines carry the request's ID — the one echoed as
// X-Request-Id — and its endpoint, though it binds no logger up front:
// Info for a rejection, Warn for a failure, and the Debug line of a
// served request only when Debug is enabled.
func TestRequestLogLinesCarryRequestID(t *testing.T) {
	for _, level := range []slog.Level{slog.LevelInfo, slog.LevelDebug} {
		s := NewWithBackend(secret, time.Hour, failingBackend{store.NewMemory()})
		s.RegisterUser("u", 0)
		s.SetObs(obs.NewRegistry())
		var logs bytes.Buffer
		s.SetLogger(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: level})))
		toks := mustLogin(t, s, "u")
		ts := httptest.NewServer(s.Handler())
		ids := map[string]int{}
		for _, body := range [][]byte{
			AppendQueryRequest(nil, toks, []ListQuery{{List: 1, Count: 10}}),    // 500
			AppendQueryRequest(nil, toks[:0], []ListQuery{{List: 1, Count: 1}}), // 401
		} {
			resp := postRaw(t, ts, "/v2/query", body)
			resp.Body.Close()
			ids[resp.Header.Get("X-Request-Id")] = resp.StatusCode
		}
		resp := post(t, ts, "/v1/login", LoginRequest{User: "u"})
		resp.Body.Close()
		ids[resp.Header.Get("X-Request-Id")] = resp.StatusCode
		ts.Close()

		want := map[int]string{500: "WARN", 401: "INFO", 200: "DEBUG"}
		seen := map[int]bool{}
		dec := json.NewDecoder(&logs)
		for dec.More() {
			var line struct {
				Level     string `json:"level"`
				RequestID string `json:"request_id"`
				Endpoint  string `json:"endpoint"`
				Status    int    `json:"status"`
			}
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			status, ok := ids[line.RequestID]
			if !ok || status != line.Status {
				t.Errorf("level %v: line %+v names no request answered %d", level, line, line.Status)
				continue
			}
			if line.Endpoint == "" || line.Level != want[status] {
				t.Errorf("level %v: line %+v, want level %s and an endpoint", level, line, want[status])
			}
			seen[status] = true
		}
		for status := range want {
			if logged := status != 200 || level == slog.LevelDebug; seen[status] != logged {
				t.Errorf("level %v: status %d logged %v, want %v", level, status, seen[status], logged)
			}
		}
	}
}

// obs.Logger(ctx) binds the context's request ID to the logger the
// context carries.
func TestContextLoggerCarriesRequestID(t *testing.T) {
	var logs bytes.Buffer
	ctx := obs.WithLogger(obs.WithRequestID(context.Background(), "0123abcd"), slog.New(slog.NewJSONHandler(&logs, nil)))
	obs.Logger(ctx).Info("below the handler")
	var line struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(logs.Bytes(), &line); err != nil || line.RequestID != "0123abcd" {
		t.Fatalf("line %q: request_id %q, want 0123abcd (%v)", logs.String(), line.RequestID, err)
	}
}

// The middleware keeps the handles it registered at construction, and
// counts into the registry a later SetObs installs instead.
func TestMiddlewareCountsIntoTheCurrentRegistry(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("u", 0)
	first := obs.NewRegistry()
	s.SetObs(first)
	h := s.Handler()
	second := obs.NewRegistry()
	login := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/login", bytes.NewReader([]byte(`{"user":"u"}`))))
		if rec.Code != http.StatusOK {
			t.Fatalf("login answered %d", rec.Code)
		}
	}
	served := func(reg *obs.Registry) (uint64, uint64) {
		endpoint := obs.Label{Name: "endpoint", Value: "/v1/login"}
		return reg.Counter(MetricHTTPRequestsTotal, httpRequestsHelp, endpoint, obs.Label{Name: "code", Value: "200"}).Value(),
			reg.Histogram(MetricHTTPRequestSeconds, httpLatencyHelp, endpoint).Count()
	}
	login()
	s.SetObs(second)
	login()
	login()
	if c, h := served(first); c != 1 || h != 1 {
		t.Errorf("first registry: %d requests, %d latencies, want 1 and 1", c, h)
	}
	if c, h := served(second); c != 2 || h != 2 {
		t.Errorf("second registry: %d requests, %d latencies, want 2 and 2", c, h)
	}
}
