package obs

import (
	"context"
	"log/slog"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests served", Label{"endpoint", "/v2/query"})
	c.Add(3)
	g := r.Gauge("test_inflight", "in-flight requests")
	g.Inc()
	g.Inc()
	g.Dec()
	r.GaugeFunc("test_sampled", "sampled at scrape", func() float64 { return 2.5 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total requests served",
		"# TYPE test_requests_total counter",
		`test_requests_total{endpoint="/v2/query"} 3`,
		"# TYPE test_inflight gauge",
		"test_inflight 1",
		"test_sampled 2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h", Label{"x", "1"})
	b := r.Counter("test_total", "h", Label{"x", "1"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("test_total", "h", Label{"x", "2"})
	if other == a {
		t.Fatal("distinct label sets share a counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_total", "h")
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	c.Inc()
	g := r.Gauge("x", "h")
	g.Set(7)
	h := r.Histogram("x_seconds", "h")
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatal("nil registry produced exposition output")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency")
	// 100 observations on the 0.005 bound, which belong to its bucket
	// (0.0025, 0.005].
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Sum(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Sum = %g, want 0.5", got)
	}
	// Every observation is in one bucket, so all quantiles
	// interpolate inside it.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got <= 0.0025 || got > 0.005 {
			t.Fatalf("Quantile(%g) = %g, want in (0.0025, 0.005]", q, got)
		}
	}
	h.Observe(50) // lands in +Inf; quantile clamps to highest bound
	if got := h.Quantile(0.999); got != 10 {
		t.Fatalf("Quantile past the last bound = %g, want clamp to 10", got)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.0025"} 0`,
		`test_seconds_bucket{le="0.005"} 100`,
		`test_seconds_bucket{le="10"} 100`,
		`test_seconds_bucket{le="+Inf"} 101`,
		"test_seconds_count 101",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	// Observe and Quantile binary-search the bounds.
	for i := 1; i < len(latencyBuckets); i++ {
		if latencyBuckets[i] <= latencyBuckets[i-1] {
			t.Fatalf("latencyBuckets[%d] = %g does not exceed %g", i, latencyBuckets[i], latencyBuckets[i-1])
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency")
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("Count = %d, want %d", got, goroutines*each)
	}
	if got := h.Sum(); math.Abs(got-float64(goroutines*each)*0.001) > 1e-6 {
		t.Fatalf("Sum = %g drifted under concurrency", got)
	}
}

func TestFindHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "h", Label{"shard", "0"})
	if got := r.FindHistogram("test_seconds", Label{"shard", "0"}); got != h {
		t.Fatal("FindHistogram did not return the registered histogram")
	}
	if got := r.FindHistogram("test_seconds", Label{"shard", "1"}); got != nil {
		t.Fatal("FindHistogram invented a histogram for an unknown label set")
	}
	if got := r.FindHistogram("absent"); got != nil {
		t.Fatal("FindHistogram invented a family")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h", Label{"path", `a"b\c`}).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if want := `test_total{path="a\"b\\c"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("escaped exposition missing %q:\n%s", want, b.String())
	}
}

func TestRequestIDs(t *testing.T) {
	seen := map[string]bool{}
	idRe := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if !idRe.MatchString(id) {
			t.Fatalf("request ID %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
	ctx := WithRequestID(context.Background(), "abc")
	if got := RequestID(ctx); got != "abc" {
		t.Fatalf("RequestID = %q, want abc", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID on bare context = %q, want empty", got)
	}
}

func TestContextLogger(t *testing.T) {
	if Logger(context.Background()) != slog.Default() {
		t.Fatal("bare context did not fall back to slog.Default")
	}
	l := slog.New(slog.DiscardHandler)
	ctx := WithLogger(context.Background(), l)
	if Logger(ctx) != l {
		t.Fatal("context logger not returned")
	}
}
