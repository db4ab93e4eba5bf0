package server

// Ops-plane wiring for the index server: metric families, the
// /metrics endpoint and the extended stats section. See DESIGN.md
// "Ops plane" for the metric inventory and the no-extra-leakage
// argument (everything aggregates over lists and terms; the label
// vocabulary is endpoints, status classes and result kinds only).

import (
	"log/slog"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/store"
)

// Metric names the server registers on the obs registry. Exported so
// the scrape smoke tests and the stats endpoint share one vocabulary.
const (
	MetricQueryRoundSeconds  = "zerber_query_round_seconds"
	MetricQueriesTotal       = "zerber_queries_total"
	MetricProvedQueries      = "zerber_proved_queries_total"
	MetricProofContinuations = "zerber_proof_continuations_total"
	MetricQueryRevalidated   = "zerber_query_revalidated_total"
	MetricMutationsTotal     = "zerber_mutations_total"
	MetricHTTPRequestSeconds = "zerber_http_request_seconds"
	MetricHTTPRequestsTotal  = "zerber_http_requests_total"
	MetricHTTPInFlight       = "zerber_http_inflight_requests"
	MetricRateLimitedTotal   = "zerber_requests_rate_limited_total"
	MetricShedTotal          = "zerber_requests_shed_total"
	MetricUptimeSeconds      = "zerber_uptime_seconds"
	// Go runtime families, sampled from runtime/metrics at scrape time:
	// what the process's heap and collector cost, beside what it serves.
	MetricGoHeapLiveBytes = "zerber_go_heap_live_bytes"
	MetricGoHeapObjects   = "zerber_go_heap_objects"
	MetricGoGCCycles      = "zerber_go_gc_cycles_total"
	MetricGoGCCPUSeconds  = "zerber_go_gc_cpu_seconds_total"
	MetricGoGoroutines    = "zerber_go_goroutines"
	// Admin-plane families (snapshot transfer beneath migration and
	// replica resync). Registered at SetObs time so a scrape sees them
	// from boot — the CI migration smoke greps a fresh server.
	MetricAdminSnapshotExports = "zerber_admin_snapshot_exports_total"
	MetricAdminSnapshotImports = "zerber_admin_snapshot_imports_total"
	MetricAdminTailBytes       = "zerber_admin_tail_bytes_total"
	MetricAdminOpsApplied      = "zerber_admin_ops_applied_total"
)

// serverMetrics holds the handles the request path observes into.
// All obs methods are nil-safe, so a nil *serverMetrics pointer (no
// registry installed) only costs the atomic load.
type serverMetrics struct {
	reg         *obs.Registry
	start       time.Time
	queryRound  *obs.Histogram // one protocol round (Query or QueryBatch)
	queries     *obs.Counter   // sub-queries served
	proved      *obs.Counter   // sub-queries served with a window proof
	continued   *obs.Counter   // proved windows served as continuations (ListQuery.ProofFrom)
	revalidated *obs.Counter   // conditional sub-queries answered Unchanged at a moved version
	inserts     *obs.Counter
	removes     *obs.Counter
	rateLimited *obs.Counter
	shed        *obs.Counter
	inFlight    *obs.Gauge
	snapExports *obs.Counter // admin snapshot exports served
	snapImports *obs.Counter // admin snapshot imports accepted
	tailBytes   *obs.Counter // WAL-tail bytes served
	opsApplied  *obs.Counter // admin-applied tail operations
}

// SetObs installs a metrics registry: the server registers its query,
// admission and admin families plus scrape-time samplers over the Go
// runtime, and Handler will serve the whole registry at GET /metrics.
// Call before Handler so the HTTP middleware can pre-create its
// per-endpoint families. Nil removes instrumentation.
func (s *Server) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.met.Store(nil)
		return
	}
	m := &serverMetrics{
		reg:         reg,
		start:       time.Now(),
		queryRound:  reg.Histogram(MetricQueryRoundSeconds, "server-side latency of one protocol round (a Query or QueryBatch call)"),
		queries:     reg.Counter(MetricQueriesTotal, "ranked-range sub-queries served"),
		proved:      reg.Counter(MetricProvedQueries, "sub-queries served with a Merkle window proof"),
		continued:   reg.Counter(MetricProofContinuations, "proved windows served as the continuation of a window the client verified"),
		revalidated: reg.Counter(MetricQueryRevalidated, "conditional sub-queries answered unchanged at a moved list version"),
		inserts:     reg.Counter(MetricMutationsTotal, "accepted mutations by op", obs.Label{Name: "op", Value: "insert"}),
		removes:     reg.Counter(MetricMutationsTotal, "accepted mutations by op", obs.Label{Name: "op", Value: "remove"}),
		rateLimited: reg.Counter(MetricRateLimitedTotal, "requests refused by the per-user rate limit"),
		shed:        reg.Counter(MetricShedTotal, "requests shed by the in-flight bound"),
		inFlight:    reg.Gauge(MetricHTTPInFlight, "HTTP requests currently being served"),
		snapExports: reg.Counter(MetricAdminSnapshotExports, "admin snapshot exports served"),
		snapImports: reg.Counter(MetricAdminSnapshotImports, "admin snapshot imports accepted"),
		tailBytes:   reg.Counter(MetricAdminTailBytes, "WAL-tail bytes served to admin peers"),
		opsApplied:  reg.Counter(MetricAdminOpsApplied, "tail operations applied through the admin plane"),
	}
	reg.GaugeFunc(MetricUptimeSeconds, "seconds since the metrics registry was installed", func() float64 {
		return time.Since(m.start).Seconds()
	})
	reg.GaugeFunc(MetricGoHeapLiveBytes, "heap bytes the last garbage collection marked live", runtimeMetric("/gc/heap/live:bytes"))
	reg.GaugeFunc(MetricGoHeapObjects, "objects occupying the heap, live or not yet swept", runtimeMetric("/gc/heap/objects:objects"))
	reg.CounterFunc(MetricGoGCCycles, "completed garbage collection cycles", runtimeMetric("/gc/cycles/total:gc-cycles"))
	reg.CounterFunc(MetricGoGCCPUSeconds, "estimated CPU time spent in garbage collection", runtimeMetric("/cpu/classes/gc/total:cpu-seconds"))
	reg.GaugeFunc(MetricGoGoroutines, "live goroutines", runtimeMetric("/sched/goroutines:goroutines"))
	s.met.Store(m)
}

// runtimeMetric samples one runtime/metrics value at scrape time. A
// name the running Go release does not know reads as 0.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		switch s[0].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[0].Value.Uint64())
		case metrics.KindFloat64:
			return s[0].Value.Float64()
		}
		return 0
	}
}

// Obs returns the installed metrics registry, or nil.
func (s *Server) Obs() *obs.Registry {
	if m := s.met.Load(); m != nil {
		return m.reg
	}
	return nil
}

// SetLogger installs the structured logger request-scoped loggers
// derive from (nil restores slog.Default).
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		s.logger.Store(nil)
		return
	}
	s.logger.Store(l)
}

// baseLogger is the logger the HTTP middleware derives per-request
// loggers from.
func (s *Server) baseLogger() *slog.Logger {
	if l := s.logger.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// endRound records one protocol round: its server-side latency since
// `start` (the clock reading token validation took at the top of the
// round) plus the number of sub-queries it carried. Nil-safe and
// allocation-free, so `defer s.met.Load().endRound(...)` costs an
// atomic load and one deferred call on un-instrumented servers — the
// shape that keeps microbench QueryInstrumented/hit inside its budget.
func (m *serverMetrics) endRound(subQueries int, start time.Time) {
	if m == nil {
		return
	}
	m.queries.Add(uint64(subQueries))
	m.queryRound.Observe(time.Since(start).Seconds())
}

// OpsStats is the operational section of /v2/stats: the signals
// `zerber status` renders without scraping /metrics. Latencies are
// estimated from the fixed-bucket histograms (same math PromQL's
// histogram_quantile uses); zero values mean "no observations yet"
// or "not instrumented".
type OpsStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight"`
	QueryRounds   uint64  `json:"query_rounds"`
	QueryP50      float64 `json:"query_p50_seconds"`
	QueryP95      float64 `json:"query_p95_seconds"`
	QueryP99      float64 `json:"query_p99_seconds"`
	WALFsyncP99   float64 `json:"wal_fsync_p99_seconds,omitempty"`
	WALAppendP99  float64 `json:"wal_append_p99_seconds,omitempty"`
	RateLimited   uint64  `json:"rate_limited"`
	Shed          uint64  `json:"shed"`
}

// opsStats assembles the OpsStats section, or nil when no registry is
// installed.
func (s *Server) opsStats() *OpsStats {
	m := s.met.Load()
	if m == nil {
		return nil
	}
	o := &OpsStats{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.inFlight.Value(),
		QueryRounds:   m.queryRound.Count(),
		QueryP50:      m.queryRound.Quantile(0.50),
		QueryP95:      m.queryRound.Quantile(0.95),
		QueryP99:      m.queryRound.Quantile(0.99),
		RateLimited:   m.rateLimited.Value(),
		Shed:          m.shed.Value(),
	}
	// The durable store registers its WAL families on the same
	// registry; absent (RAM-only backend) they read as zero.
	o.WALFsyncP99 = m.reg.FindHistogram(store.MetricWALFsyncSeconds).Quantile(0.99)
	o.WALAppendP99 = m.reg.FindHistogram(store.MetricWALAppendSeconds).Quantile(0.99)
	return o
}

// metrics-aware atomic holders live on Server (server.go); the
// aliases below keep the field types out of the main struct clutter.
type (
	metPtr    = atomic.Pointer[serverMetrics]
	admPtr    = atomic.Pointer[admission]
	loggerPtr = atomic.Pointer[slog.Logger]
)
