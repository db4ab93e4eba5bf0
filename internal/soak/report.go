package soak

import (
	"encoding/json"
	"time"
)

// Report is the one-line JSON summary a soak run emits. OK is the
// single pass/fail bit CI asserts on: within error budget and zero
// invariant violations of any class.
type Report struct {
	DurationSec float64 `json:"duration_sec"`

	// Load.
	Ops            uint64  `json:"ops"`
	Searches       uint64  `json:"searches"`
	ProvedSearches uint64  `json:"proved_searches"`
	Inserts        uint64  `json:"inserts"`
	Removes        uint64  `json:"removes"`
	RemovesSkipped uint64  `json:"removes_skipped"`
	OpsPerSec      float64 `json:"ops_per_sec"`

	// Error budget (SLO).
	Errors       uint64            `json:"errors"`
	ErrorRate    float64           `json:"error_rate"`
	ErrorBudget  float64           `json:"error_budget"`
	ErrorsByKind map[string]uint64 `json:"errors_by_kind,omitempty"`

	// Latency, milliseconds.
	SearchP50Ms float64 `json:"search_p50_ms"`
	SearchP99Ms float64 `json:"search_p99_ms"`
	WriteP50Ms  float64 `json:"write_p50_ms"`
	WriteP99Ms  float64 `json:"write_p99_ms"`

	// Faults injected.
	PrimaryKills     uint64 `json:"primary_kills"`
	ReplicaKills     uint64 `json:"replica_kills"`
	Restarts         uint64 `json:"restarts"`
	Migrations       uint64 `json:"migrations"`
	MigrationsFailed uint64 `json:"migrations_failed"`
	Resyncs          uint64 `json:"resyncs"`

	// Invariants.
	IdentityChecks     uint64   `json:"identity_checks"`
	IdentityViolations uint64   `json:"identity_violations"`
	IdentitySamples    []string `json:"identity_samples,omitempty"`
	EpochObserved      uint64   `json:"epoch_windows_observed"`
	EpochViolations    uint64   `json:"epoch_violations"`
	EpochSamples       []string `json:"epoch_samples,omitempty"`
	// RevalidatedWindows counts the router's retained windows served
	// for a shard's Unchanged answer at a moved version — the path
	// whose exactness the epoch check watches under kills and
	// migrations.
	RevalidatedWindows uint64   `json:"revalidated_windows"`
	ProofViolations    uint64   `json:"proof_violations"`
	ProofSamples       []string `json:"proof_samples,omitempty"`

	// Oracle state at the end (present = must-serve elements).
	OraclePresent   int `json:"oracle_present"`
	OracleUncertain int `json:"oracle_uncertain"`

	OK bool `json:"ok"`
}

// JSON renders the report as one line (no trailing newline).
func (r *Report) JSON() string {
	b, err := json.Marshal(r)
	if err != nil {
		return `{"ok":false,"error":"report marshal failed"}`
	}
	return string(b)
}

// report completes the run's counters with the figures read at the
// end: rates, latencies, the epoch checker's counts, the router's
// revalidations and the oracle's totals.
func (r *run) report(elapsed time.Duration) *Report {
	r.mu.Lock()
	rep := r.rep
	r.mu.Unlock()
	rep.DurationSec = elapsed.Seconds()
	rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	if rep.Ops > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Ops)
	}
	rep.ErrorBudget = errorBudget
	rep.SearchP50Ms = r.searchLat.Quantile(0.50)
	rep.SearchP99Ms = r.searchLat.Quantile(0.99)
	rep.WriteP50Ms = r.writeLat.Quantile(0.50)
	rep.WriteP99Ms = r.writeLat.Quantile(0.99)
	rep.EpochObserved = r.checker.observed.Load()
	rep.EpochViolations = r.checker.violations.Load()
	rep.EpochSamples = r.checker.samples()
	rep.RevalidatedWindows = r.router.Revalidated()
	rep.OraclePresent, rep.OracleUncertain = r.orc.counts()
	rep.OK = rep.ErrorRate <= rep.ErrorBudget &&
		rep.IdentityViolations == 0 &&
		rep.EpochViolations == 0 &&
		rep.ProofViolations == 0 &&
		rep.MigrationsFailed == 0
	return &rep
}
