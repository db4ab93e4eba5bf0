// Package replica turns one logical index shard into a small replica
// set: a primary transport plus N replicas holding the same lists.
// The Set is itself a client.Transport, so a cluster Router (or any
// other caller) treats it as one shard.
//
// Writes are synchronous primary-first: the primary must accept the
// operation (its rejection is the caller's answer), then the operation
// fans concurrently to every live replica before the write returns. A
// replica that misses a write — fault, timeout, operator restart — is
// marked stale and excluded from reads until Resync copies the
// primary's state back over it. That invariant is what makes replica
// answers trustworthy without revalidation: any member eligible for a
// read has applied every acknowledged write.
//
// Reads fail over: the first eligible member is asked on the caller's
// own context, and only a member fault moves the read on to the next
// one. A deterministic application answer (auth failure, unknown list,
// forbidden) is the answer — every member would give the same one. No
// second member runs beside the first, so a sub-query reaches a second
// member only after a fault; a read the caller abandons charges no
// member with a fault.
//
// Replication changes nothing about what servers learn: every member
// stores exactly the sealed payloads, TRS values and group IDs the
// single-server deployment stores, so N replicas are N instances of
// the same adversary model, not a new one (see DESIGN.md "Replication
// & migration").
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/proof"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// DemoteAfter is the consecutive-fault run after which the primary is
// read last instead of first (writes still require it — the set does
// no election; a dead primary fails writes until the operator migrates
// or restarts it).
const DemoteAfter = 3

// Metric names a Set registers via SetObs. The router attaches the
// shard label; the families themselves carry no list or term identity.
const (
	MetricFailoverReads  = "zerber_replica_failover_reads_total"
	MetricWriteFaults    = "zerber_replica_write_faults_total"
	MetricStaleMembers   = "zerber_replica_stale_members"
	MetricRootMismatches = "zerber_replica_root_mismatches_total"
)

// member is one transport of the set plus its liveness state.
type member struct {
	t client.Transport
	// consecFails is the current run of read faults (reset by any
	// answer). The primary's run drives demotion.
	consecFails atomic.Int64
	// stale marks a replica that missed a write (or was imported over);
	// stale members take no reads until Resync. Never set on the
	// primary.
	stale atomic.Bool
}

// Set is a replica set over one logical shard. All methods are safe
// for concurrent use.
type Set struct {
	members []*member
	// writeMu orders writes against resync's catch-up barrier: writes
	// hold it shared, the final catch-up phase of Resync holds it
	// exclusively so no write lands between tail replay and the
	// replica's return to the read rotation.
	writeMu sync.RWMutex

	// roots pins the last Merkle list root seen per list across all
	// members: any two members answering a proved read at the same
	// list version must commit to the same root, so a failover
	// answer cannot silently come from a diverged replica
	// (checkRoot).
	rootMu sync.Mutex
	roots  map[zerber.ListID]rootPin

	failovers      atomic.Uint64
	writeFaults    atomic.Uint64
	resyncs        atomic.Uint64
	rootMismatches atomic.Uint64
}

// rootPin is the newest committed root the set has observed for one
// list.
type rootPin struct {
	version uint64
	root    proof.Hash
}

// NewSet builds a replica set from a primary and its replicas. Every
// member must be distinct — wiring one server in twice fakes
// redundancy (client.TransportIdentity decides).
func NewSet(primary client.Transport, replicas ...client.Transport) (*Set, error) {
	if primary == nil {
		return nil, errors.New("replica: nil primary transport")
	}
	all := append([]client.Transport{primary}, replicas...)
	seen := make(map[any]int, len(all))
	s := &Set{members: make([]*member, 0, len(all))}
	for i, t := range all {
		if t == nil {
			return nil, fmt.Errorf("replica: nil transport at member %d", i)
		}
		id := client.TransportIdentity(t)
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("replica: members %d and %d are the same transport", prev, i)
		}
		seen[id] = i
		s.members = append(s.members, &member{t: t})
	}
	return s, nil
}

// Members reports the set size (primary included).
func (s *Set) Members() int { return len(s.members) }

// SeedHedgeDelay is a no-op stub. Reads no longer hedge (they fail
// over on a fault, see read.go), so there is no delay to seed; the
// method stays only because the frozen benchmark fixture calls it.
func (s *Set) SeedHedgeDelay(func() time.Duration) {}

// Stats is a point-in-time snapshot of the set's counters.
type Stats struct {
	Members        int  `json:"members"`
	Stale          int  `json:"stale"`
	PrimaryDemoted bool `json:"primary_demoted"`
	// Hedges is a stub that always reads 0: reads no longer hedge. The
	// field stays only because the frozen benchmark sums it into
	// replica.hedged_ratio.
	Hedges      uint64 `json:"hedges"`
	Failovers   uint64 `json:"failovers"`
	WriteFaults uint64 `json:"write_faults"`
	Resyncs     uint64 `json:"resyncs"`
	// RootMismatches counts proved answers whose Merkle root disagreed
	// with another member's at the same list version — evidence of a
	// diverged (or lying) member.
	RootMismatches uint64 `json:"root_mismatches,omitempty"`
}

// Stats snapshots the counters.
func (s *Set) Stats() Stats {
	return Stats{
		Members:        len(s.members),
		Stale:          s.staleCount(),
		PrimaryDemoted: s.members[0].consecFails.Load() >= DemoteAfter,
		Failovers:      s.failovers.Load(),
		WriteFaults:    s.writeFaults.Load(),
		Resyncs:        s.resyncs.Load(),
		RootMismatches: s.rootMismatches.Load(),
	}
}

func (s *Set) staleCount() int {
	n := 0
	for _, m := range s.members[1:] {
		if m.stale.Load() {
			n++
		}
	}
	return n
}

// SetObs registers the set's metric families, sampled at scrape time.
// The caller supplies identifying labels (the router passes the shard
// index); the label vocabulary must stay inside the scrape allowlist.
func (s *Set) SetObs(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricFailoverReads, "reads failed over after a member fault",
		func() float64 { return float64(s.failovers.Load()) }, labels...)
	reg.CounterFunc(MetricWriteFaults, "replica write fan-out faults (each marks the replica stale)",
		func() float64 { return float64(s.writeFaults.Load()) }, labels...)
	reg.GaugeFunc(MetricStaleMembers, "replicas currently excluded from reads pending resync",
		func() float64 { return float64(s.staleCount()) }, labels...)
	reg.CounterFunc(MetricRootMismatches, "proved answers whose Merkle root disagreed across members at one list version",
		func() float64 { return float64(s.rootMismatches.Load()) }, labels...)
}

// checkRoot cross-checks one proved answer against the set-wide root
// registry: members answering the same list version must commit to
// the same root. A mismatch is returned as a plain error — it maps to
// CodeInternal and is therefore failover-worthy, so the read moves on
// to the next member instead of serving a diverged answer. Unproven
// answers (nil window) pass through; older-version answers are
// ignored rather than compared, since a read racing a write can
// legitimately observe a member pre-write.
func (s *Set) checkRoot(list zerber.ListID, w *proof.Window) error {
	if w == nil {
		return nil
	}
	s.rootMu.Lock()
	defer s.rootMu.Unlock()
	pin, ok := s.roots[list]
	switch {
	case ok && pin.version == w.Version:
		if pin.root != w.Root {
			s.rootMismatches.Add(1)
			return fmt.Errorf("replica: list %d version %d: members committed two different roots", list, w.Version)
		}
	case !ok || w.Version > pin.version:
		if s.roots == nil {
			s.roots = make(map[zerber.ListID]rootPin)
		}
		s.roots[list] = rootPin{version: w.Version, root: w.Root}
	}
	return nil
}

// write runs one mutation primary-first, then fans it to the live
// replicas. The primary's answer is the caller's answer; a replica
// fault only marks that replica stale.
func (s *Set) write(ctx context.Context, op func(ctx context.Context, t client.Transport) error) error {
	s.writeMu.RLock()
	defer s.writeMu.RUnlock()
	if err := op(ctx, s.members[0].t); err != nil {
		return err
	}
	if len(s.members) == 1 {
		return nil
	}
	var wg sync.WaitGroup
	for i := 1; i < len(s.members); i++ {
		m := s.members[i]
		if m.stale.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := op(ctx, m.t); err != nil {
				// Any miss — fault, overload, caller cancellation — means
				// the replica no longer holds every acknowledged write;
				// out of the rotation until Resync proves otherwise.
				s.writeFaults.Add(1)
				m.stale.Store(true)
			}
		}()
	}
	wg.Wait()
	return nil
}

// Insert implements client.Transport.
func (s *Set) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return client.InsertOne(ctx, s.InsertBatch, tok, list, el)
}

// Remove implements client.Transport.
func (s *Set) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return client.RemoveOne(ctx, s.RemoveBatch, tok, list, sealed)
}

// InsertBatch implements client.Transport.
func (s *Set) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	return s.write(ctx, func(ctx context.Context, t client.Transport) error {
		return t.InsertBatch(ctx, tok, ops)
	})
}

// RemoveBatch implements client.Transport.
func (s *Set) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	return s.write(ctx, func(ctx context.Context, t client.Transport) error {
		return t.RemoveBatch(ctx, tok, ops)
	})
}

// Login implements client.Transport. Tokens are signed with the
// cluster-wide secret, so any member's answer is valid everywhere.
func (s *Set) Login(ctx context.Context, user string) ([]crypt.Token, error) {
	return failoverRead(ctx, s, func(ctx context.Context, t client.Transport) ([]crypt.Token, error) {
		return t.Login(ctx, user)
	})
}

// Query implements client.Transport.
func (s *Set) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return client.QueryOne(ctx, s.QueryBatch, toks, list, offset, count)
}

// QueryBatch implements client.Transport. Proved sub-query answers
// are cross-checked against the set's root registry before the read
// accepts them, so a failover answer cannot hand back state
// the rest of the set never committed to.
func (s *Set) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	return failoverRead(ctx, s, func(ctx context.Context, t client.Transport) (client.BatchQueryResult, error) {
		res, err := t.QueryBatch(ctx, toks, queries)
		if err != nil {
			return res, err
		}
		for i, resp := range res.Responses {
			if i >= len(queries) {
				break
			}
			if err := s.checkRoot(queries[i].List, resp.Proof); err != nil {
				return client.BatchQueryResult{}, err
			}
		}
		return res, nil
	})
}

var _ client.Transport = (*Set)(nil)
