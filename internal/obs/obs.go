// Package obs is the observability foundation of the ops plane: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms — all atomic, lock-cheap on the hot path) with a
// Prometheus-text-format encoder, plus request-ID generation and
// log/slog context helpers that thread a request-scoped logger through
// the context-first (v3) API.
//
// Confidentiality: metric names and label values are chosen by the
// instrumenting code and must aggregate over lists and terms — an
// endpoint name, a status class, a shard index. Nothing in this
// package ever labels by term identity, list ID or user name, so the
// ops plane observes only what the Section 3.1 threat model already
// grants the untrusted server (request timing and volume). The
// /metrics scrape test asserts the label allowlist.
//
// All metric methods are nil-receiver safe: un-instrumented code paths
// (no registry installed) call through nil handles and pay one branch,
// which is what keeps instrumentation overhead under the 5% budget —
// see microbench QueryInstrumented/hit.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to a metric at
// creation time.
type Label struct {
	Name, Value string
}

// metricKind discriminates the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Creation (Counter, Gauge, ...) takes a lock;
// updates on the returned handles are atomic. Creation is idempotent:
// asking for an existing (name, labels) pair returns the same handle,
// so independently initialized components can share families.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in first-registration order
}

type family struct {
	help     string
	kind     metricKind
	byLabels map[string]exposable
}

// exposable is anything a family can render.
type exposable interface {
	expose(w io.Writer, name, labels string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes a label set ({a="1",b="2"} sorted by name)
// for identity and exposition.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register finds or creates the family and the metric under it. mk is
// called only when the (name, labels) pair is new.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, mk func() exposable) exposable {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{help: help, kind: kind, byLabels: make(map[string]exposable)}
		r.families[name] = fam
		r.order = append(r.order, name)
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, fam.kind))
	}
	key := labelKey(labels)
	if m, ok := fam.byLabels[key]; ok {
		return m
	}
	m := mk()
	fam.byLabels[key] = m
	return m
}

// Counter creates (or finds) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels, func() exposable { return &Counter{} })
	if m == nil {
		return nil
	}
	return m.(*Counter)
}

// Gauge creates (or finds) an integer gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels, func() exposable { return &Gauge{} })
	if m == nil {
		return nil
	}
	return m.(*Gauge)
}

// Histogram creates (or finds) a latency histogram over
// latencyBuckets.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func() exposable { return NewHistogram() })
	if m == nil {
		return nil
	}
	return m.(*Histogram)
}

// CounterFunc registers a counter whose value is sampled at scrape
// time — for components that already maintain their own counters
// (e.g. a replica set's failover totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, labels, func() exposable { return funcMetric(fn) })
}

// GaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, labels, func() exposable { return funcMetric(fn) })
}

// FindHistogram returns a histogram registered earlier under exactly
// (name, labels), or nil — how the stats endpoint reads percentiles
// out of families other layers registered.
func (r *Registry) FindHistogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok || fam.kind != kindHistogram {
		return nil
	}
	h, _ := fam.byLabels[labelKey(labels)].(*Histogram)
	return h
}

// WritePrometheus renders every family in Prometheus text exposition
// format (HELP, TYPE, then one line per metric).
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		fam := r.families[name]
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, fam.help, name, fam.kind)
		// Stable output: label sets in sorted order.
		keys := make([]string, 0, len(fam.byLabels))
		for k := range fam.byLabels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fam.byLabels[k].expose(w, name, k)
		}
	}
}

// Handler serves the registry at GET /metrics in text exposition
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// --- counter ---------------------------------------------------------

// Counter is a monotonically increasing counter. The nil receiver is
// a no-op, so un-instrumented paths need no branching at call sites.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) expose(w io.Writer, name, labels string) {
	writeSample(w, name, labels, formatFloat(float64(c.v.Load())))
}

// --- gauge -----------------------------------------------------------

// Gauge is an integer gauge (in-flight requests, consecutive
// failures). Nil receiver is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.AddDelta(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.AddDelta(-1) }

// AddDelta adds n (may be negative).
func (g *Gauge) AddDelta(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) expose(w io.Writer, name, labels string) {
	writeSample(w, name, labels, strconv.FormatInt(g.v.Load(), 10))
}

// --- sampled funcs ---------------------------------------------------

type funcMetric func() float64

func (f funcMetric) expose(w io.Writer, name, labels string) {
	writeSample(w, name, labels, formatFloat(f()))
}

// --- histogram -------------------------------------------------------

// latencyBuckets is every histogram's layout, ascending upper bounds
// with an implicit +Inf bucket: 50µs to 10s, roughly ×2.5 per step —
// wide enough to hold both a cache-hit query round and a degraded WAL
// fsync.
var latencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, for latencies). Observe is wait-free: one binary search,
// one atomic add per bucket, one CAS loop for the sum. Nil receiver
// is a no-op.
type Histogram struct {
	counts []atomic.Uint64 // one per latencyBuckets bound, then +Inf
	sum    atomic.Uint64   // float64 bits, CAS-updated
	count  atomic.Uint64
}

// NewHistogram builds a standalone histogram outside any registry —
// for components that track latency internally (the cluster router's
// per-shard latency, read by its Health and p95 gauge) and only
// optionally expose quantiles via scrape-time samplers.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(latencyBuckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the running sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket
// layout by linear interpolation inside the target bucket — the same
// estimate PromQL's histogram_quantile produces. Returns 0 with no
// observations; values in the +Inf bucket clamp to the highest finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(latencyBuckets) {
				return latencyBuckets[len(latencyBuckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = latencyBuckets[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (latencyBuckets[i]-lo)*frac
		}
		cum += c
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

func (h *Histogram) expose(w io.Writer, name, labels string) {
	var cum uint64
	for i, b := range latencyBuckets {
		cum += h.counts[i].Load()
		writeSample(w, name+"_bucket", joinLabels(labels, `le="`+formatFloat(b)+`"`), strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(latencyBuckets)].Load()
	writeSample(w, name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatUint(cum, 10))
	writeSample(w, name+"_sum", labels, formatFloat(h.Sum()))
	writeSample(w, name+"_count", labels, strconv.FormatUint(h.count.Load(), 10))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
