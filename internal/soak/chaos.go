package soak

import (
	"context"
	"errors"
	"fmt"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/crypt"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// shardState is the harness's bookkeeping for one routing slot: the
// replica set the router serves it through, and the processes plus
// per-member transports behind it. Migration replaces the whole
// state; kills and restarts mutate procs in place.
type shardState struct {
	set   *replica.Set
	procs []*Proc            // index 0 = primary
	trans []client.Transport // each member's own client.HTTP, parallel to procs
	gen   int                // bumped per migration (names fresh members)
}

// addViolations records identity violations with a bounded sample.
func (r *run) addViolations(vs []string) {
	if len(vs) == 0 {
		return
	}
	r.count(func(rep *Report) {
		rep.IdentityViolations += uint64(len(vs))
		for _, v := range vs {
			rep.IdentitySamples = addSample(rep.IdentitySamples, v)
		}
	})
	for _, v := range vs {
		r.cfg.Logf("IDENTITY VIOLATION: %s", v)
	}
}

// chaos is the fault loop: alternating fault classes on a rotating
// shard, min(5s, Duration/4) apart, each followed by recovery and a
// quiesced identity check. The order — primary kill, live migration,
// replica kill — guarantees a bounded run still covers at least one
// SIGKILL and one migration before repeating.
func (r *run) chaos(ctx context.Context) {
	every := min(maxFaultEvery, r.cfg.Duration/4)
	for kind, shard := 0, 0; ; kind, shard = kind+1, (shard+1)%shards {
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
		switch kind % 3 {
		case 0:
			r.killMember(ctx, shard, 0)
		case 1:
			r.migrateShard(ctx, shard)
		case 2:
			r.killMember(ctx, shard, replicas-1)
		}
		if ctx.Err() != nil {
			return
		}
		r.identityCheck(ctx)
	}
}

// killMember SIGKILLs one member, leaves the cluster degraded for the
// fault downtime, restarts it and resyncs the set.
func (r *run) killMember(ctx context.Context, shard, member int) {
	p := r.shards[shard].procs[member]
	if !p.Alive() {
		return
	}
	role := "replica"
	if member == 0 {
		role = "primary"
	}
	r.cfg.Logf("chaos: SIGKILL %s %s of shard %d", role, p.Name, shard)
	r.count(func(rep *Report) {
		if member == 0 {
			rep.PrimaryKills++
		} else {
			rep.ReplicaKills++
		}
	})
	if err := p.Kill(); err != nil {
		r.cfg.Logf("chaos: kill %s: %v", p.Name, err)
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(faultDowntime):
	}
	if err := p.Restart(); err != nil {
		r.cfg.Logf("chaos: restart %s FAILED: %v", p.Name, err)
		return
	}
	r.count(func(rep *Report) { rep.Restarts++ })
	r.resyncSet(ctx, shard)
}

// resyncSet converges stale replicas onto the shard's primary.
func (r *run) resyncSet(ctx context.Context, shard int) {
	if err := r.shards[shard].set.Resync(ctx); err != nil {
		r.cfg.Logf("chaos: resync shard %d: %v", shard, err)
		return
	}
	r.count(func(rep *Report) { rep.Resyncs++ })
}

// migrateShard performs a live migration of one routing slot onto a
// freshly booted replica set, then retires the old processes.
func (r *run) migrateShard(ctx context.Context, shard int) {
	s := r.shards[shard]
	r.cfg.Logf("chaos: live-migrating shard %d (gen %d -> %d)", shard, s.gen, s.gen+1)
	var mig cluster.MigrationReport
	fresh, err := r.bootShard(shard, s.gen+1)
	if err == nil {
		if mig, err = r.router.Migrate(ctx, shard, fresh.set); err != nil {
			fresh.stopAll(r.cfg.Logf)
		}
	}
	if err != nil {
		r.cfg.Logf("chaos: migration of shard %d FAILED: %v", shard, err)
		r.count(func(rep *Report) { rep.MigrationsFailed++ })
		return
	}
	r.count(func(rep *Report) { rep.Migrations++ })
	r.cfg.Logf("chaos: shard %d migrated: %d lists, %d elements, %d tail bytes, epoch %d, barrier %s",
		shard, mig.Lists, mig.Elements, mig.TailBytes, mig.Epoch, mig.BarrierDuration.Round(time.Millisecond))
	old := *s
	*s = *fresh
	// The import landed on the new primary and marked its replicas
	// stale; resync populates them before they take reads.
	r.resyncSet(ctx, shard)
	old.stopAll(r.cfg.Logf)
}

// stopAll retires a shard state's processes gracefully.
func (s *shardState) stopAll(logf func(string, ...interface{})) {
	for _, p := range s.procs {
		stopCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := p.Stop(stopCtx); err != nil {
			logf("chaos: stopping %s: %v", p.Name, err)
		}
		cancel()
	}
}

// identityCheck quiesces the workload and verifies restart-identity:
// every member of every shard must serve exactly the oracle's
// acknowledged elements (uncertain ones may go either way), and the
// primary's view then settles the uncertainty. Stale replicas are
// resynced first, so the member sweep checks the invariant the
// replica layer actually promises — any read-eligible member holds
// every acknowledged write. Each member is paged through its own
// transport, not through the epoch checker.
func (r *run) identityCheck(ctx context.Context) {
	r.gate.Lock()
	defer r.gate.Unlock()
	if ctx.Err() != nil {
		return
	}
	r.count(func(rep *Report) { rep.IdentityChecks++ })
	start := time.Now()
	for shard := range r.shards {
		r.resyncSet(ctx, shard)
	}
	all := r.orc.snapshotLists()
	byShard := make(map[int][]zerber.ListID)
	for _, list := range all {
		s := r.router.ShardFor(list)
		byShard[s] = append(byShard[s], list)
	}
	checked := 0
	// abandoned ends a check the run's deadline (or a cancellation) cut
	// short with one line, instead of one failed page per list left: once
	// the context is done, the next page fails at once.
	abandoned := func() bool {
		if ctx.Err() == nil {
			return false
		}
		r.cfg.Logf("chaos: identity check abandoned (%v) after %d of %d lists", ctx.Err(), checked, len(all))
		return true
	}
	for shard, lists := range byShard {
		s := r.shards[shard]
		for _, list := range lists {
			var primaryServed map[string]bool
			for m := range s.trans {
				if !s.procs[m].Alive() {
					continue
				}
				served, err := pageList(ctx, s.trans[m], r.toks, list)
				if err != nil {
					if abandoned() {
						return
					}
					r.cfg.Logf("chaos: identity check: list %d member %s: %v", list, s.procs[m].Name, err)
					continue
				}
				r.addViolations(r.orc.checkList(list, served, s.procs[m].Name))
				if m == 0 {
					primaryServed = served
				}
			}
			if primaryServed != nil {
				r.orc.resolveList(list, primaryServed)
			}
			checked++
		}
	}
	present, uncertain := r.orc.counts()
	r.cfg.Logf("chaos: identity check over %d lists done in %s (oracle: %d present, %d uncertain)",
		checked, time.Since(start).Round(time.Millisecond), present, uncertain)
}

// pageList downloads one list's full visible content from one member
// as a set of sealed payloads. A list the member never created (all
// oracle entries uncertain) reads as empty.
func pageList(ctx context.Context, t client.Transport, toks []crypt.Token, list zerber.ListID) (map[string]bool, error) {
	served := make(map[string]bool)
	offset := 0
	for {
		resp, _, err := client.QueryOne(ctx, t.QueryBatch, toks, list, offset, 4096)
		if errors.Is(err, server.ErrUnknownList) {
			return served, nil
		}
		if err != nil {
			return nil, err
		}
		for _, el := range resp.Elements {
			served[string(el.Sealed)] = true
		}
		if resp.Exhausted {
			return served, nil
		}
		if len(resp.Elements) == 0 {
			return nil, fmt.Errorf("soak: list %d: empty page without exhaustion at offset %d", list, offset)
		}
		offset += len(resp.Elements)
	}
}
