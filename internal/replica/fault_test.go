package replica

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"zerberr/internal/server"
)

// TestFailoverWorthyAgreesWithServerPolicy holds the set's failover
// decision to server.IsFault, the one fault policy, with no exception:
// on a single member attempt even a context error means that member
// timed out (the router's shardFault is where abandoned operations are
// neutral).
func TestFailoverWorthyAgreesWithServerPolicy(t *testing.T) {
	rows := []error{
		errors.New("dial tcp: connection refused"),
		errors.New("server: something broke"),
		fmt.Errorf("member 1: %w", context.DeadlineExceeded),
		fmt.Errorf("member 1: %w", context.Canceled),
	}
	for _, code := range []string{
		server.CodeBadToken, server.CodeTokenExpired, server.CodeForbidden, server.CodeUnknownUser,
		server.CodeUnknownList, server.CodeNotFound, server.CodeBadRequest, server.CodeRateLimited,
		server.CodeOverloaded,
	} {
		rows = append(rows, fmt.Errorf("member 1: %w", server.SentinelForCode(code)))
	}
	for _, err := range rows {
		for _, e := range []error{err, &server.BatchError{Index: 2, Err: err}} {
			if got, want := failoverWorthy(e), server.IsFault(e); got != want {
				t.Errorf("failoverWorthy(%v) = %v, server.IsFault = %v", e, got, want)
			}
		}
	}
	if !failoverWorthy(context.DeadlineExceeded) || failoverWorthy(server.ErrRateLimited) {
		t.Error("a member timeout must fail over and a clean rejection must not")
	}
}
