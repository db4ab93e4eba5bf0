package cluster

// Live shard migration. Migrate moves one routing slot's contents onto
// a new transport while the router keeps serving: the bulk of the data
// ships as an atomic rank-ordered snapshot with writes still flowing,
// then the slot's write barrier closes only for the WAL-tail catch-up
// and the route flip, so the write pause is proportional to the write
// rate during the copy, not to the shard size. Before the flip the two
// sides are differentially verified list-by-list; a mismatch aborts
// with the old route intact and the destination's partial state safe
// to discard.

import (
	"context"
	"fmt"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// MigrationReport summarizes one completed migration.
type MigrationReport struct {
	// Shard is the routing slot that moved.
	Shard int `json:"shard"`
	// Lists and Elements count what the destination verified it holds.
	Lists    int `json:"lists"`
	Elements int `json:"elements"`
	// TailBytes is the size of the log tail applied under the barrier
	// to catch the destination up (zero when the source is not tailable,
	// or the tail failed, and a full copy ran instead).
	TailBytes int `json:"tail_bytes"`
	// Epoch is the routing-table epoch after the flip.
	Epoch uint64 `json:"epoch"`
	// Duration covers the whole migration; BarrierDuration only the
	// write-blocked window at the end.
	Duration        time.Duration `json:"duration_ns"`
	BarrierDuration time.Duration `json:"barrier_duration_ns"`
}

// Migrate moves the given routing slot onto dst and flips the routing
// table to it, bumping the epoch. Both the slot's current transport and
// dst must expose the admin plane (client.ShardAdmin); dst should be
// empty — its prior contents are replaced by the import. Queries are
// never blocked; writes to the slot stall only during the final
// catch-up-and-flip barrier. On any error the routing table is
// unchanged and the destination's partial state is unreferenced (safe
// to discard or retry onto).
func (r *Router) Migrate(ctx context.Context, shard int, dst client.Transport) (MigrationReport, error) {
	rep, err := r.migrate(ctx, shard, dst)
	if err != nil {
		r.migrationsFailed.Add(1)
		return rep, err
	}
	r.migrationsOK.Add(1)
	return rep, nil
}

func (r *Router) migrate(ctx context.Context, shard int, dst client.Transport) (MigrationReport, error) {
	start := time.Now()
	var rep MigrationReport
	if shard < 0 || shard >= r.NumShards() {
		return rep, fmt.Errorf("cluster: no shard %d (have %d)", shard, r.NumShards())
	}
	rep.Shard = shard
	if dst == nil {
		return rep, fmt.Errorf("cluster: nil destination for shard %d", shard)
	}
	dstID := client.TransportIdentity(dst)
	tab := r.table()
	for i, t := range tab.shards {
		if client.TransportIdentity(t) == dstID {
			return rep, fmt.Errorf("cluster: destination already serves shard %d", i)
		}
	}
	src := tab.shards[shard]
	sa, ok := src.(client.ShardAdmin)
	if !ok {
		return rep, fmt.Errorf("cluster: shard %d transport %T has no admin surface", shard, src)
	}
	da, ok := dst.(client.ShardAdmin)
	if !ok {
		return rep, fmt.Errorf("cluster: destination transport %T has no admin surface", dst)
	}

	// Phase 1: bulk copy under live writes. The export is atomic and
	// rank-ordered; writes that land after it are picked up by the
	// catch-up under the barrier.
	exp, err := client.CopyShard(ctx, sa, da)
	if err != nil {
		return rep, fmt.Errorf("cluster: migrate shard %d: %w", shard, err)
	}

	// Phase 2: barrier. In-flight writes drain (they hold the slot's
	// writeMu shared and loaded the table after acquiring it), new ones
	// park; queries keep flowing — content is identical on both sides by
	// the time the table flips. Writes are parked, so the catch-up (WAL
	// tail, or a fresh full copy when there is none) is exact.
	r.writeMu[shard].Lock()
	defer r.writeMu[shard].Unlock()
	barrierStart := time.Now()
	if rep.TailBytes, err = client.CatchUpShard(ctx, sa, da, exp); err != nil {
		return rep, fmt.Errorf("cluster: migrate shard %d: %w", shard, err)
	}

	// Phase 3: differential verification, still under the barrier.
	// Content identity (list set, element counts, rank-ordered CRCs) is
	// what is compared — versions are not: lists born after the export
	// carry per-instance epochs by design, and a version mismatch across
	// the flip only costs a revalidation cache miss, never staleness.
	srcDig, err := sa.Digest(ctx)
	if err != nil {
		return rep, fmt.Errorf("cluster: migrate shard %d: source digest: %w", shard, err)
	}
	dstDig, err := da.Digest(ctx)
	if err != nil {
		return rep, fmt.Errorf("cluster: migrate shard %d: destination digest: %w", shard, err)
	}
	if err := DiffDigests(srcDig, dstDig); err != nil {
		return rep, fmt.Errorf("cluster: migrate shard %d: verification failed (route unchanged): %w", shard, err)
	}
	rep.Lists = len(dstDig)
	for _, d := range dstDig {
		rep.Elements += d.Elements
	}

	// Phase 4: flip. A whole new table with a bumped epoch; readers of
	// one batch observe one consistent assignment. The health run resets
	// — the new transport has no faults yet.
	next := &routingTable{epoch: tab.epoch + 1, shards: append([]client.Transport(nil), tab.shards...)}
	next.shards[shard] = dst
	r.tab.Store(next)
	r.health[shard].consecFails.Store(0)
	rep.Epoch = next.epoch
	rep.BarrierDuration = time.Since(barrierStart)
	rep.Duration = time.Since(start)
	return rep, nil
}

// DiffDigests verifies two digest sets describe identical content:
// same list set, and per list the same element count and rank-ordered
// checksum. Versions are deliberately ignored (see Migrate). Exported
// for `zerber migrate`, which runs the same differential check over
// the HTTP admin surface.
func DiffDigests(src, dst []server.ListDigest) error {
	byList := make(map[zerber.ListID]server.ListDigest, len(src))
	for _, d := range src {
		byList[d.List] = d
	}
	if len(dst) != len(src) {
		return fmt.Errorf("list count differs: source %d, destination %d", len(src), len(dst))
	}
	for _, d := range dst {
		s, ok := byList[d.List]
		if !ok {
			return fmt.Errorf("list %d on destination but not source", d.List)
		}
		if s.Elements != d.Elements {
			return fmt.Errorf("list %d: %d elements on source, %d on destination", d.List, s.Elements, d.Elements)
		}
		if s.Sum != d.Sum {
			return fmt.Errorf("list %d: checksum mismatch (source %s, destination %s)", d.List, s.Sum, d.Sum)
		}
	}
	return nil
}
