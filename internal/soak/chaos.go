package soak

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	procs []*Proc       // index 0 = primary
	trans []client.HTTP // parallel to procs
	gen   int           // bumped per migration (names fresh members)
}

// chaos is the fault injector plus invariant checker. It owns the
// quiesce gate: workers hold it shared per operation, the identity
// check holds it exclusively so it observes a cluster with no write
// in flight.
type chaos struct {
	cfg     Config
	router  *cluster.Router
	checker *epochChecker
	orc     *oracle
	shards  []*shardState
	gate    sync.RWMutex
	toks    []crypt.Token // all-groups read tokens for paging
	logf    func(format string, args ...interface{})
	// boot spawns a fresh replica set for one slot (migration target).
	boot func(shard, gen, members int) (*shardState, error)

	primaryKills     atomic.Uint64
	replicaKills     atomic.Uint64
	restarts         atomic.Uint64
	migrations       atomic.Uint64
	migrationsFailed atomic.Uint64
	resyncs          atomic.Uint64

	identityChecks     atomic.Uint64
	identityViolations atomic.Uint64

	vmu     sync.Mutex
	samples []string
}

// addViolations records identity violations with a bounded sample.
func (c *chaos) addViolations(vs []string) {
	if len(vs) == 0 {
		return
	}
	c.identityViolations.Add(uint64(len(vs)))
	c.vmu.Lock()
	for _, v := range vs {
		if len(c.samples) >= 8 {
			break
		}
		c.samples = append(c.samples, v)
	}
	c.vmu.Unlock()
	for _, v := range vs {
		c.logf("IDENTITY VIOLATION: %s", v)
	}
}

// run is the chaos loop: alternating fault classes on a rotating
// shard, each followed by recovery and a quiesced identity check. The
// order — primary kill, live migration, replica kill — guarantees a
// bounded run still covers at least one SIGKILL and one migration
// before repeating.
func (c *chaos) run(ctx context.Context) {
	kind := 0
	shard := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(c.cfg.FaultEvery):
		}
		switch kind % 3 {
		case 0:
			c.killMember(ctx, shard, 0)
		case 1:
			c.migrateShard(ctx, shard)
		case 2:
			// Kill the last member; with no replicas configured this
			// degrades to another primary kill.
			c.killMember(ctx, shard, len(c.shards[shard].procs)-1)
		}
		if ctx.Err() != nil {
			return
		}
		c.identityCheck(ctx)
		kind++
		shard = (shard + 1) % len(c.shards)
	}
}

// killMember SIGKILLs one member, leaves the cluster degraded for the
// configured downtime, restarts it and resyncs the set.
func (c *chaos) killMember(ctx context.Context, shard, member int) {
	s := c.shards[shard]
	p := s.procs[member]
	if !p.Alive() {
		return
	}
	role := "replica"
	if member == 0 {
		role = "primary"
		c.primaryKills.Add(1)
	} else {
		c.replicaKills.Add(1)
	}
	c.logf("chaos: SIGKILL %s %s of shard %d", role, p.Name, shard)
	if err := p.Kill(); err != nil {
		c.logf("chaos: kill %s: %v", p.Name, err)
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(c.cfg.FaultDowntime):
	}
	if err := p.Restart(); err != nil {
		c.logf("chaos: restart %s FAILED: %v", p.Name, err)
		return
	}
	c.restarts.Add(1)
	c.resyncSet(ctx, shard)
}

// resyncSet converges stale replicas onto the shard's primary.
func (c *chaos) resyncSet(ctx context.Context, shard int) {
	s := c.shards[shard]
	if s.set.Members() <= 1 {
		return
	}
	if err := s.set.Resync(ctx); err != nil {
		c.logf("chaos: resync shard %d: %v", shard, err)
		return
	}
	c.resyncs.Add(1)
}

// migrateShard performs a live migration of one routing slot onto a
// freshly booted replica set, then retires the old processes.
func (c *chaos) migrateShard(ctx context.Context, shard int) {
	s := c.shards[shard]
	c.logf("chaos: live-migrating shard %d (gen %d -> %d)", shard, s.gen, s.gen+1)
	fresh, err := c.boot(shard, s.gen+1, len(s.procs))
	if err != nil {
		c.logf("chaos: migration boot failed: %v", err)
		c.migrationsFailed.Add(1)
		return
	}
	rep, err := c.router.Migrate(ctx, shard, fresh.set)
	if err != nil {
		c.logf("chaos: migration of shard %d FAILED: %v", shard, err)
		c.migrationsFailed.Add(1)
		fresh.stopAll(c.logf)
		return
	}
	c.migrations.Add(1)
	c.logf("chaos: shard %d migrated: %d lists, %d elements, %d tail bytes, epoch %d, barrier %s",
		shard, rep.Lists, rep.Elements, rep.TailBytes, rep.Epoch, rep.BarrierDuration.Round(time.Millisecond))
	old := *s
	*s = *fresh
	// The import landed on the new primary and marked its replicas
	// stale; resync populates them before they take reads.
	c.resyncSet(ctx, shard)
	old.stopAll(c.logf)
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
// every acknowledged write.
func (c *chaos) identityCheck(ctx context.Context) {
	c.gate.Lock()
	defer c.gate.Unlock()
	if ctx.Err() != nil {
		return
	}
	c.identityChecks.Add(1)
	start := time.Now()
	for shard := range c.shards {
		c.resyncSet(ctx, shard)
	}
	byShard := make(map[int][]zerber.ListID)
	for _, list := range c.orc.snapshotLists() {
		s := c.router.ShardFor(list)
		byShard[s] = append(byShard[s], list)
	}
	checked := 0
	for shard, lists := range byShard {
		s := c.shards[shard]
		for _, list := range lists {
			var primaryServed map[string]bool
			for m := range s.trans {
				if !s.procs[m].Alive() {
					continue
				}
				served, err := pageList(ctx, s.trans[m], c.toks, list)
				if err != nil {
					c.logf("chaos: identity check: list %d member %s: %v", list, s.procs[m].Name, err)
					continue
				}
				c.addViolations(c.orc.checkList(list, served, s.procs[m].Name))
				if m == 0 {
					primaryServed = served
				}
			}
			if primaryServed != nil {
				c.orc.resolveList(list, primaryServed)
			}
			checked++
		}
	}
	present, uncertain := c.orc.counts()
	c.logf("chaos: identity check over %d lists done in %s (oracle: %d present, %d uncertain)",
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
