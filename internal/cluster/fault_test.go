package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"zerberr/internal/server"
)

// TestShardFaultAgreesWithServerPolicy holds the router's health
// accounting to server.IsFault, the one fault policy, on every wire
// code, a transport-level failure and batch-wrapped forms of each. The
// single documented difference: an abandoned operation (canceled or
// timed out) is neutral to a shard, though IsFault calls it a fault.
func TestShardFaultAgreesWithServerPolicy(t *testing.T) {
	if shardFault(nil) {
		t.Error("shardFault(nil) = true")
	}
	rows := []error{errors.New("dial tcp: connection refused"), errors.New("server: something broke")}
	for _, code := range []string{
		server.CodeBadToken, server.CodeTokenExpired, server.CodeForbidden, server.CodeUnknownUser,
		server.CodeUnknownList, server.CodeNotFound, server.CodeBadRequest, server.CodeRateLimited,
		server.CodeOverloaded,
	} {
		rows = append(rows, fmt.Errorf("shard 1: %w", server.SentinelForCode(code)))
	}
	for _, err := range rows {
		for _, e := range []error{err, &server.BatchError{Index: 2, Err: err}} {
			if got, want := shardFault(e), server.IsFault(e); got != want {
				t.Errorf("shardFault(%v) = %v, server.IsFault = %v", e, got, want)
			}
		}
	}
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		err := &server.BatchError{Index: 0, Err: fmt.Errorf("shard 0: %w", ctxErr)}
		if !server.IsFault(err) {
			t.Fatalf("server.IsFault(%v) = false; a codeless error is a fault", err)
		}
		if shardFault(err) {
			t.Errorf("shardFault(%v) = true; abandoned operations must stay neutral", err)
		}
		if !fanOutAborts(err) {
			t.Errorf("fanOutAborts(%v) = false; an abandoned batch still cancels its siblings", err)
		}
	}
}
