package replica

// Failover reads: one read tries the set's members one at a time, on
// the caller's own context, and a member fault moves on to the next
// member at once. The set is the read's retry: every member read but
// the last in the order carries client.FailsOver, so it returns a fault
// without its transport's own backoff; the last keeps the full policy.

import (
	"context"
	"fmt"

	"zerberr/internal/client"
	"zerberr/internal/server"
)

// failoverRead runs op against the set's members in readOrder until
// one answers. It is a package function because Go methods cannot be
// generic; it is the read path behind Login and QueryBatch.
func failoverRead[T any](ctx context.Context, s *Set, op func(ctx context.Context, t client.Transport) (T, error)) (T, error) {
	var zero T
	var firstFault error
	order := s.readOrder(make([]int, 0, 8)) // on the stack
	for i, idx := range order {
		m := s.members[idx]
		if i > 0 {
			s.failovers.Add(1)
		}
		mctx := ctx
		if i < len(order)-1 {
			mctx = client.FailsOver(ctx)
		}
		v, err := op(mctx, m.t)
		switch {
		case err == nil:
			m.consecFails.Store(0)
			return v, nil
		case ctx.Err() != nil:
			// The caller gave up: that says nothing about the member.
			return zero, ctx.Err()
		case !failoverWorthy(err):
			// A deterministic application answer (bad token, unknown
			// list, forbidden, rate-limited): every member would say
			// the same, and the member answering proves it alive.
			m.consecFails.Store(0)
			return zero, err
		}
		m.consecFails.Add(1)
		if firstFault == nil {
			firstFault = err
		}
	}
	return zero, fmt.Errorf("replica: every member faulted: %w", firstFault)
}

// readOrder is the member rotation for one read: the primary first —
// unless its consecutive-fault run demoted it, in which case it is
// tried last — then the live replicas. Stale replicas never serve
// reads. There is always at least one entry (a set with every replica
// stale reads from the primary, demoted or not), appended to order.
func (s *Set) readOrder(order []int) []int {
	demoted := len(s.members) > 1 && s.members[0].consecFails.Load() >= DemoteAfter
	if !demoted {
		order = append(order, 0)
	}
	for i := 1; i < len(s.members); i++ {
		if !s.members[i].stale.Load() {
			order = append(order, i)
		}
	}
	if demoted {
		order = append(order, 0)
	}
	return order
}

// failoverWorthy reports whether a member's error indicts the member
// (fail over to the next one) rather than the request (return it):
// exactly server.IsFault. Context errors carry no code, so they are
// faults here: with the caller's context still live they mean that
// member timed out. (A read whose own context ended returns before
// this is asked.)
func failoverWorthy(err error) bool { return server.IsFault(err) }
