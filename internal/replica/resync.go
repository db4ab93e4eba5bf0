package replica

// Resync and the set's admin surface. A Set delegates the ShardAdmin
// snapshot-transfer calls to its primary — a migration that exports
// "the shard" exports the primary's state — with one twist: admin
// mutations (import, applied tail) leave the replicas holding old
// state, so they are marked stale and Resync brings them back.
//
// Resync itself is the bulk-copy-then-barrier shape live migration
// uses: ship the primary's atomic snapshot while writes keep flowing,
// then take the write barrier only for the WAL-tail catch-up, so the
// pause is proportional to the write rate during the copy, not to the
// index size. After a resync the replica holds the primary's per-list
// versions verbatim (the snapshot carries them) and every later write
// fans to both, so the members answer version-identical responses —
// what makes a failover answer revalidatable against a retained window
// for free.

import (
	"context"
	"errors"
	"fmt"

	"zerberr/internal/client"
	"zerberr/internal/server"
)

// errNoAdmin reports a member transport without the ShardAdmin
// surface.
var errNoAdmin = errors.New("replica: transport has no admin surface")

// admin returns the primary's admin surface.
func (s *Set) admin() (client.ShardAdmin, error) {
	a, ok := s.members[0].t.(client.ShardAdmin)
	if !ok {
		return nil, fmt.Errorf("%w (primary %T)", errNoAdmin, s.members[0].t)
	}
	return a, nil
}

// ExportSnapshot implements client.ShardAdmin via the primary.
func (s *Set) ExportSnapshot(ctx context.Context) (server.SnapshotExport, error) {
	a, err := s.admin()
	if err != nil {
		return server.SnapshotExport{}, err
	}
	return a.ExportSnapshot(ctx)
}

// ImportSnapshot implements client.ShardAdmin: the primary adopts the
// state and every replica is marked stale until Resync copies it over.
func (s *Set) ImportSnapshot(ctx context.Context, data []byte) error {
	a, err := s.admin()
	if err != nil {
		return err
	}
	if err := a.ImportSnapshot(ctx, data); err != nil {
		return err
	}
	s.markReplicasStale()
	return nil
}

// TailSince implements client.ShardAdmin via the primary.
func (s *Set) TailSince(ctx context.Context, seq uint64) ([]byte, error) {
	a, err := s.admin()
	if err != nil {
		return nil, err
	}
	return a.TailSince(ctx, seq)
}

// ApplyTail implements client.ShardAdmin: the primary applies the tail
// and every replica is marked stale until Resync.
func (s *Set) ApplyTail(ctx context.Context, tail []byte) error {
	a, err := s.admin()
	if err != nil {
		return err
	}
	if err := a.ApplyTail(ctx, tail); err != nil {
		return err
	}
	s.markReplicasStale()
	return nil
}

// Digest implements client.ShardAdmin via the primary.
func (s *Set) Digest(ctx context.Context) ([]server.ListDigest, error) {
	a, err := s.admin()
	if err != nil {
		return nil, err
	}
	return a.Digest(ctx)
}

func (s *Set) markReplicasStale() {
	for _, m := range s.members[1:] {
		m.stale.Store(true)
	}
}

// Resync copies the primary's state onto every stale replica and
// returns them to the read rotation. Replicas that resync cleanly come
// back even when others fail; the first failure is reported.
func (s *Set) Resync(ctx context.Context) error {
	if s.staleCount() == 0 {
		return nil
	}
	pa, err := s.admin()
	if err != nil {
		return err
	}
	var firstErr error
	for _, m := range s.members[1:] {
		if !m.stale.Load() {
			continue
		}
		ra, ok := m.t.(client.ShardAdmin)
		if !ok {
			err = fmt.Errorf("%w (replica %T)", errNoAdmin, m.t)
		} else {
			err = s.resyncOne(ctx, pa, ra, m)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// resyncOne brings one replica current: bulk snapshot copy under live
// writes, then the write barrier for the tail catch-up. The replica is
// marked live before the barrier lifts, so no write can slip between
// "caught up" and "back in rotation".
func (s *Set) resyncOne(ctx context.Context, pa, ra client.ShardAdmin, m *member) error {
	exp, err := client.CopyShard(ctx, pa, ra)
	if err != nil {
		return fmt.Errorf("replica: resync: %w", err)
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if _, err := client.CatchUpShard(ctx, pa, ra, exp); err != nil {
		return fmt.Errorf("replica: resync: %w", err)
	}
	m.consecFails.Store(0)
	m.stale.Store(false)
	s.resyncs.Add(1)
	return nil
}

var _ client.ShardAdmin = (*Set)(nil)
