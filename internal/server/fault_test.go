package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// TestIsFaultPolicy pins the one fault policy: of every registered
// wire code only internal and overloaded indict the member that
// answered; everything else is an answer a healthy member gives. The
// replica set's failover and the router's shard health are tested
// against IsFault in their own packages.
func TestIsFaultPolicy(t *testing.T) {
	codes := []struct {
		code  string
		fault bool
	}{
		{CodeBadToken, false},
		{CodeTokenExpired, false},
		{CodeForbidden, false},
		{CodeUnknownUser, false},
		{CodeUnknownList, false},
		{CodeNotFound, false},
		{CodeBadRequest, false},
		{CodeRateLimited, false},
		{CodeOverloaded, true},
		{CodeInternal, true},
	}
	type row struct {
		name  string
		err   error
		fault bool
	}
	rows := []row{
		{"nil", nil, false},
		{"transport-level error", errors.New("dial tcp 127.0.0.1:1: connection refused"), true},
		{"wrapped deadline", fmt.Errorf("client: /v2/query: %w", context.DeadlineExceeded), true},
		{"wrapped cancel", fmt.Errorf("client: /v2/query: %w", context.Canceled), true},
	}
	for _, c := range codes {
		err := SentinelForCode(c.code)
		if err == nil {
			// internal has no sentinel: it is what an unregistered error is.
			if c.code != CodeInternal {
				t.Fatalf("code %q has no sentinel", c.code)
			}
			err = errors.New("server: something broke")
		}
		if got := ErrorCode(err); got != c.code {
			t.Fatalf("ErrorCode(sentinel of %q) = %q", c.code, got)
		}
		rows = append(rows, row{c.code, fmt.Errorf("wrapped: %w", err), c.fault})
	}
	for _, r := range rows {
		if got := IsFault(r.err); got != r.fault {
			t.Errorf("IsFault(%s) = %v, want %v", r.name, got, r.fault)
		}
		if r.err == nil {
			continue
		}
		// A batch failure is classified by the operation error it carries.
		if got := IsFault(&BatchError{Index: 3, Err: r.err}); got != r.fault {
			t.Errorf("IsFault(BatchError{%s}) = %v, want %v", r.name, got, r.fault)
		}
	}
}

// TestErrorRegistryRoundTrip: every wire code names a sentinel that
// maps back to the same code, answered with the HTTP status it always
// had — the one table holds all three facts.
func TestErrorRegistryRoundTrip(t *testing.T) {
	for code, status := range map[string]int{
		CodeBadToken:     http.StatusUnauthorized,
		CodeTokenExpired: http.StatusUnauthorized,
		CodeForbidden:    http.StatusForbidden,
		CodeUnknownUser:  http.StatusNotFound,
		CodeUnknownList:  http.StatusNotFound,
		CodeNotFound:     http.StatusNotFound,
		CodeBadRequest:   http.StatusBadRequest,
		CodeRateLimited:  http.StatusTooManyRequests,
		CodeOverloaded:   http.StatusServiceUnavailable,
	} {
		err := fmt.Errorf("wrapped: %w", SentinelForCode(code))
		if gotCode, gotStatus := classify(err); gotCode != code || gotStatus != status {
			t.Errorf("%s: round trip gives %s, %d; want %s, %d", code, gotCode, gotStatus, code, status)
		}
	}
	if code, status := classify(errors.New("server: something broke")); code != CodeInternal || status != http.StatusInternalServerError {
		t.Errorf("an unregistered error is %s, %d", code, status)
	}
	if SentinelForCode(CodeInternal) != nil {
		t.Error("internal has a sentinel")
	}
}
