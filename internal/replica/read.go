package replica

// Hedged and failover reads: one read races the set's members. The
// first eligible member is tried immediately; a hedge timer launches
// the same operation on the next member when the answer is slow, and a
// member fault skips the timer and fails over at once. First success
// (or first deterministic application answer) wins and cancels the
// rest. Accounting is deliberately one-sided: a hedge loser canceled
// because someone else won is never recorded as a fault — hedging must
// not poison the health signal that tuned it.

import (
	"context"
	"fmt"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/server"
)

// attempt is one member's answer inside a read race.
type attempt[T any] struct {
	idx int
	v   T
	err error
}

// raceRead runs op against the set's members with hedging and
// failover. It is a package function because Go methods cannot be
// generic; it is the read path behind Login and QueryBatch.
func raceRead[T any](ctx context.Context, s *Set, op func(ctx context.Context, t client.Transport) (T, error)) (T, error) {
	var zero T
	order := s.readOrder()
	first := order[0]
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the member count: losers park their answers and exit
	// even after the race has been decided.
	ch := make(chan attempt[T], len(order))
	next := 0
	launch := func() {
		m := s.members[order[next]]
		idx := order[next]
		next++
		go func() {
			v, err := op(rctx, m.t)
			ch <- attempt[T]{idx: idx, v: v, err: err}
		}()
	}
	launch()
	var timerC <-chan time.Time
	var timer *time.Timer
	if next < len(order) {
		timer = time.NewTimer(s.hedgeDelay())
		defer timer.Stop()
		timerC = timer.C
	}
	pending := 1
	var firstFault error
	for {
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-timerC:
			s.hedges.Add(1)
			launch()
			pending++
			if next < len(order) {
				timer.Reset(s.hedgeDelay())
			} else {
				timerC = nil
			}
		case a := <-ch:
			pending--
			switch {
			case a.err == nil:
				s.members[a.idx].consecFails.Store(0)
				if a.idx != first {
					s.hedgeWins.Add(1)
				}
				return a.v, nil
			case !failoverWorthy(a.err):
				// A deterministic application answer (bad token, unknown
				// list, forbidden, rate-limited): every member would say
				// the same, and the member answering proves it alive.
				s.members[a.idx].consecFails.Store(0)
				return zero, a.err
			}
			// A genuine member fault: note it and fail over immediately
			// rather than waiting out the hedge timer.
			s.members[a.idx].consecFails.Add(1)
			if firstFault == nil {
				firstFault = a.err
			}
			if next < len(order) {
				s.failovers.Add(1)
				launch()
				pending++
				if next == len(order) {
					timerC = nil // every member is in the race: none is left to hedge to
				}
			} else if pending == 0 {
				return zero, fmt.Errorf("replica: every member faulted: %w", firstFault)
			}
		}
	}
}

// readOrder is the member rotation for one read: the primary first —
// unless its consecutive-fault run demoted it, in which case it is
// tried last — then the live replicas. Stale replicas never serve
// reads. There is always at least one entry (a set with every replica
// stale reads from the primary, demoted or not).
func (s *Set) readOrder() []int {
	order := make([]int, 0, len(s.members))
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
// faults here: on an individual attempt they mean that member timed
// out. (A canceled parent context short-circuits the race before
// accounting.)
func failoverWorthy(err error) bool { return server.IsFault(err) }
