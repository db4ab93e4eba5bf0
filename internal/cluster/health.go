package cluster

// Per-shard health tracking: every operation the router sends to a
// shard is observed — in-flight count, totals, consecutive faults and
// the last fault message — so an operator (or `zerber status`) can see
// which shard of a cluster is degrading while the self-healing client
// transport rides out the blip. The labels carry only the shard index;
// which lists live on a shard (and therefore which terms) is never
// exposed.

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/replica"
	"zerberr/internal/server"
)

// Metric names the router registers on the obs registry.
const (
	MetricShardInFlight    = "zerber_shard_inflight_requests"
	MetricShardOpsTotal    = "zerber_shard_ops_total"
	MetricShardErrorsTotal = "zerber_shard_errors_total"
	MetricShardConsecFails = "zerber_shard_consecutive_failures"
	MetricShardLatencyP95  = "zerber_shard_latency_p95_seconds"
	MetricRoutingEpoch     = "zerber_routing_epoch"
	MetricMigrationsTotal  = "zerber_migrations_total"
)

// DemoteAfter is the consecutive-fault run after which a shard is
// considered down for routing purposes: its replica set (if it is one)
// is told to hedge immediately — reads route around the primary with
// zero delay — and Health/metrics flag it for the operator. A single
// answered operation clears the run.
const DemoteAfter = 5

// Hedge-delay clamp for latency-derived seeds: below hedgeDelayMin the
// hedge storm costs more than it saves; above hedgeDelayMax a stall
// must not go unhedged just because the shard was historically slow.
const (
	hedgeDelayMin = 2 * time.Millisecond
	hedgeDelayMax = 500 * time.Millisecond
)

// shardHealth is one shard's live counters. All hot-path fields are
// atomic; only the last-fault record takes the mutex, and only on
// faults.
type shardHealth struct {
	inFlight    atomic.Int64
	ops         atomic.Uint64
	errs        atomic.Uint64
	consecFails atomic.Int64

	mu        sync.Mutex
	lastErr   string
	lastErrAt time.Time
}

// ShardHealth is one shard's health snapshot (Router.Health).
type ShardHealth struct {
	Shard int `json:"shard"`
	// InFlight is the number of operations currently outstanding
	// against the shard.
	InFlight int64 `json:"in_flight"`
	// Ops counts operations sent (batches count once).
	Ops uint64 `json:"ops"`
	// Errors counts shard faults: transport failures, internal errors
	// and overload rejections. Clean application rejections (auth,
	// forbidden, not-found, ...) prove the shard is alive and are not
	// faults.
	Errors uint64 `json:"errors"`
	// ConsecutiveFailures is the current run of faults; any answered
	// operation resets it. A growing run is the "this shard is down"
	// signal.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// LastError is the most recent fault message, with when it
	// happened.
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitzero"`
	// LatencyP95 estimates the shard's 95th-percentile latency over
	// answered operations, in seconds — the signal the hedge delay is
	// seeded from. Zero until the shard has answered something.
	LatencyP95 float64 `json:"latency_p95_seconds,omitempty"`
	// Demoted reports the consecutive-fault run crossed DemoteAfter:
	// the shard's replica set hedges immediately until it answers
	// again.
	Demoted bool `json:"demoted,omitempty"`
}

// observeShard begins one shard operation; call the returned func with
// the operation's outcome.
func (r *Router) observeShard(shard int) func(error) {
	h := &r.health[shard]
	h.inFlight.Add(1)
	start := time.Now()
	return func(err error) {
		h.inFlight.Add(-1)
		h.ops.Add(1)
		switch {
		case shardFault(err):
			h.errs.Add(1)
			h.consecFails.Add(1)
			h.mu.Lock()
			h.lastErr = err.Error()
			h.lastErrAt = time.Now()
			h.mu.Unlock()
		case err == nil || !isContextErr(err):
			// The shard answered (success or a clean application
			// rejection): it is alive. Only answered operations feed the
			// latency histogram — timed-out faults would teach the hedge
			// seed that "slow is normal", exactly backwards.
			h.consecFails.Store(0)
			r.latency[shard].Observe(time.Since(start).Seconds())
		}
		// Context errors are neutral: the caller (or a sibling shard's
		// failure) abandoned the operation, which says nothing about
		// this shard's health.
	}
}

// fanOutAborts reports whether a shard's batch error warrants
// canceling the sibling shards: faults mean the batch cannot succeed
// and waiting is pure latency, while clean per-operation rejections
// leave the siblings' independent work to finish.
func fanOutAborts(err error) bool {
	return isContextErr(err) || shardFault(err)
}

// demoted reports whether the shard's consecutive-fault run crossed
// the routing threshold.
func (r *Router) demoted(shard int) bool {
	return r.health[shard].consecFails.Load() >= DemoteAfter
}

// hedgeDelaySeed derives a shard's hedge delay for its replica set: a
// demoted shard hedges immediately (reads route around the faulting
// primary), a healthy one hedges at its observed p95 (≈5% of reads
// hedge), clamped to sane bounds; with no observations yet the set's
// own default applies (negative = "no opinion").
func (r *Router) hedgeDelaySeed(shard int) func() time.Duration {
	return func() time.Duration {
		if r.demoted(shard) {
			return 0
		}
		p95 := r.latency[shard].Quantile(0.95)
		if p95 <= 0 {
			return -1
		}
		d := time.Duration(p95 * float64(time.Second))
		if d < hedgeDelayMin {
			d = hedgeDelayMin
		}
		if d > hedgeDelayMax {
			d = hedgeDelayMax
		}
		return d
	}
}

// shardFault reports whether an operation outcome indicts the shard:
// what server.IsFault calls a member fault, except that abandoned
// (context-canceled or timed-out) operations are neutral here — the
// caller or a sibling shard's failure gave up, which says nothing about
// this shard.
func shardFault(err error) bool {
	return !isContextErr(err) && server.IsFault(err)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Health snapshots every shard's counters, in shard order.
func (r *Router) Health() []ShardHealth {
	out := make([]ShardHealth, len(r.health))
	for i := range r.health {
		h := &r.health[i]
		h.mu.Lock()
		lastErr, lastAt := h.lastErr, h.lastErrAt
		h.mu.Unlock()
		out[i] = ShardHealth{
			Shard:               i,
			InFlight:            h.inFlight.Load(),
			Ops:                 h.ops.Load(),
			Errors:              h.errs.Load(),
			ConsecutiveFailures: h.consecFails.Load(),
			LastError:           lastErr,
			LastErrorAt:         lastAt,
			LatencyP95:          r.latency[i].Quantile(0.95),
			Demoted:             h.consecFails.Load() >= DemoteAfter,
		}
	}
	return out
}

// SetObs registers the router's per-shard health families on a metrics
// registry, sampled at scrape time from the live counters. Labels
// carry only the shard index.
func (r *Router) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i := range r.health {
		h := &r.health[i]
		label := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc(MetricShardInFlight, "operations currently outstanding against the shard",
			func() float64 { return float64(h.inFlight.Load()) }, label)
		reg.CounterFunc(MetricShardOpsTotal, "operations sent to the shard",
			func() float64 { return float64(h.ops.Load()) }, label)
		reg.CounterFunc(MetricShardErrorsTotal, "shard faults (transport, internal, overload)",
			func() float64 { return float64(h.errs.Load()) }, label)
		reg.GaugeFunc(MetricShardConsecFails, "current run of consecutive shard faults",
			func() float64 { return float64(h.consecFails.Load()) }, label)
		lat := r.latency[i]
		reg.GaugeFunc(MetricShardLatencyP95, "estimated p95 latency of answered shard operations",
			func() float64 { return lat.Quantile(0.95) }, label)
		if set, ok := r.transport(i).(*replica.Set); ok {
			// A replica-set shard contributes its hedging counters under
			// the shard label. (The set behind a slot can change under
			// Migrate; these families stay bound to the boot-time set —
			// migrated-in sets report through their own registries.)
			set.SetObs(reg, label)
		}
	}
	reg.GaugeFunc(MetricRoutingEpoch, "current routing-table epoch (bumped by every migration)",
		func() float64 { return float64(r.Epoch()) })
	reg.CounterFunc(MetricMigrationsTotal, "completed shard migrations by result",
		func() float64 { return float64(r.migrationsOK.Load()) }, obs.Label{Name: "result", Value: "ok"})
	reg.CounterFunc(MetricMigrationsTotal, "completed shard migrations by result",
		func() float64 { return float64(r.migrationsFailed.Load()) }, obs.Label{Name: "result", Value: "error"})
}
