package cluster

// Full-stack /metrics scrape test: one registry collecting the durable
// store's WAL families, a server's query/admission/cache families, the
// HTTP middleware's per-endpoint families and the router's per-shard
// health samplers — scraped over HTTP and checked for (a) well-formed
// Prometheus text exposition and (b) the confidentiality allowlist: no
// label may carry term identity, list IDs or user names.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// scrapeLabelAllowlist is the ops plane's whole label vocabulary. A
// scrape exposing any label name outside it fails the test — the gate
// that keeps future instrumentation from leaking per-term, per-list or
// per-user series (DESIGN.md "Ops plane").
var scrapeLabelAllowlist = map[string]bool{
	"endpoint": true, // HTTP route pattern, not request data
	"code":     true, // HTTP status code
	"le":       true, // histogram bucket bound
	"op":       true, // mutation kind: insert | remove
	"result":   true, // outcome kind: ok | error
	"shard":    true, // shard index
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

func TestMetricsScrapeExposition(t *testing.T) {
	const user = "scrape-user"
	reg := obs.NewRegistry()

	// Shard 0 is durable (WAL families) with the full server ops plane
	// armed; shard 1 is a plain RAM server behind the same router.
	durable, err := store.OpenDurable(t.TempDir(), store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("scrape-secret")
	srv0 := server.NewWithBackend(secret, time.Hour, durable)
	defer srv0.Close()
	srv0.SetObs(reg)
	srv0.SetCache(cache.New(1 << 20))
	srv0.SetAdmission(&server.AdmissionConfig{PerUserRate: 1000, MaxInFlight: 64})
	srv1 := server.New(secret, time.Hour)
	router, err := NewRouter(client.Local{S: srv0}, client.Local{S: srv1})
	if err != nil {
		t.Fatal(err)
	}
	router.SetObs(reg)
	srv0.RegisterUser(user, 0)
	srv1.RegisterUser(user, 0)

	// Traffic through every layer: the HTTP handler (endpoint/code
	// families), the durable backend (WAL families), the cache (miss
	// then hit) and the router (shard samplers).
	ts := httptest.NewServer(srv0.Handler())
	defer ts.Close()
	ctx := context.Background()
	toks, err := router.Login(ctx, user)
	if err != nil {
		t.Fatal(err)
	}
	for list := 0; list < 4; list++ { // even lists land on shard 0, odd on shard 1
		el := server.StoredElement{Sealed: []byte{byte(list)}, TRS: 1, Group: 0}
		if err := router.Insert(ctx, toks[0], zerber.ListID(list), el); err != nil {
			t.Fatal(err)
		}
	}
	below := func(b byte) {
		if err := router.Insert(ctx, toks[0], 0, server.StoredElement{Sealed: []byte{b}, TRS: float64(b) / 256, Group: 0}); err != nil {
			t.Fatal(err)
		}
	}
	below(128)
	var first server.QueryResponse
	for i := 0; i < 2; i++ { // second pass hits srv0's result cache
		resp, _, err := (client.Local{S: srv0}).Query(ctx, toks, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		first = resp
	}
	// A write below the window, then a conditional read at the old
	// version: revalidated, not re-served.
	below(64)
	if res, err := srv0.QueryBatch(ctx, toks, []server.ListQuery{{List: 0, Offset: 0, Count: 1, IfVersion: &first.Version}}); err != nil || !res[0].Unchanged {
		t.Fatalf("conditional read after a write below the window: %+v, %v", res, err)
	}
	if resp, err := http.Get(ts.URL + "/v2/stats"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> kind
	counts := map[string]uint64{}
	buckets := map[string]uint64{} // series (sans le) -> last cumulative count
	families := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels, value := m[1], m[3], m[4]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[fam] == "" && typed[name] == "" {
			t.Fatalf("sample %q precedes its # TYPE declaration", line)
		}
		if typed[name] != "" {
			fam = name
		}
		families[fam] = true
		var le string
		if labels != "" {
			for _, pair := range strings.Split(labels, ",") {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("malformed label %q in %q", pair, line)
				}
				if !scrapeLabelAllowlist[lm[1]] {
					t.Fatalf("label %q outside the allowlist in %q", lm[1], line)
				}
				if lm[1] == "le" {
					le = lm[2]
				}
			}
		}
		// Histogram series must be internally consistent: cumulative
		// buckets never decrease, and _count equals the +Inf bucket.
		if typed[fam] == "histogram" {
			series := fam + "{" + stripLe(labels) + "}"
			switch {
			case strings.HasSuffix(name, "_bucket"):
				cum, _ := strconv.ParseUint(value, 10, 64)
				if cum < buckets[series] {
					t.Fatalf("bucket counts decrease at %q", line)
				}
				buckets[series] = cum
				if le == "+Inf" {
					counts[series+"+Inf"] = cum
				}
			case strings.HasSuffix(name, "_count"):
				n, _ := strconv.ParseUint(value, 10, 64)
				counts[series+"count"] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for series := range buckets {
		if counts[series+"+Inf"] != counts[series+"count"] {
			t.Fatalf("series %s: +Inf bucket %d != count %d", series, counts[series+"+Inf"], counts[series+"count"])
		}
	}

	// Every layer's families must be present in one scrape.
	for _, fam := range []string{
		server.MetricQueryRoundSeconds, server.MetricQueriesTotal,
		server.MetricMutationsTotal, server.MetricHTTPRequestSeconds,
		server.MetricHTTPRequestsTotal, server.MetricHTTPInFlight,
		server.MetricRateLimitedTotal, server.MetricShedTotal,
		server.MetricCacheHitsTotal, server.MetricCacheMissesTotal,
		server.MetricCacheBytes, server.MetricUptimeSeconds,
		server.MetricGoHeapLiveBytes, server.MetricGoHeapObjects,
		server.MetricGoGCCycles, server.MetricGoGCCPUSeconds,
		server.MetricGoGoroutines, server.MetricQueryRevalidated,
		store.MetricWALAppendSeconds, store.MetricWALRecordsTotal,
		store.MetricSnapshotsTotal, store.MetricWALPoisoned,
		store.MetricSnapshotSeconds, store.MetricSnapshotFreeze,
		MetricShardInFlight, MetricShardOpsTotal,
		MetricShardErrorsTotal, MetricShardConsecFails,
		MetricShardLatencyP95, MetricRoutingEpoch,
		MetricMigrationsTotal,
	} {
		if !families[fam] {
			t.Errorf("family %s missing from scrape", fam)
		}
	}

	// The served traffic must be visible: a cache hit and a revalidation
	// were recorded, the WAL appended the inserts, both shards saw
	// operations.
	text := string(body)
	for _, want := range []string{
		server.MetricCacheHitsTotal + " 1",
		server.MetricQueryRevalidated + " 1",
		store.MetricWALRecordsTotal + " 4",    // the two even lists, two writes below
		MetricShardOpsTotal + `{shard="0"} 5`, // login + four inserts
		MetricShardOpsTotal + `{shard="1"} 2`, // two inserts
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape lacks %q", want)
		}
	}

	// Confidentiality: nothing identifying a user, list or term leaks
	// into the scrape (values checked above are allowlisted labels and
	// numbers; this catches names and help strings too).
	if strings.Contains(text, user) {
		t.Fatal("user name leaked into /metrics")
	}
}

func stripLe(labels string) string {
	var keep []string
	for _, pair := range strings.Split(labels, ",") {
		if pair != "" && !strings.HasPrefix(pair, `le="`) {
			keep = append(keep, pair)
		}
	}
	return strings.Join(keep, ",")
}

// faultyTransport wraps a shard transport and, while fail is set,
// answers every read with an unclassified error (which maps to
// CodeInternal — a shard fault).
type faultyTransport struct {
	client.Transport
	fail bool
}

func (f *faultyTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	if f.fail {
		return client.BatchQueryResult{}, fmt.Errorf("shard: injected fault")
	}
	return f.Transport.QueryBatch(ctx, toks, queries)
}

// TestShardHealthTracksFaults exercises the health counters through an
// injected shard fault: consecutive failures climb while the shard
// errors, reset on the next clean answer (even a clean application
// rejection), and the error totals and last-fault record persist.
//
// It runs over an in-process shard and over an HTTP one: a rejection
// must read as clean on the wire too, where the error envelope's code
// is all that tells it from a fault.
func TestShardHealthTracksFaults(t *testing.T) {
	for _, wire := range []string{"local", "http"} {
		t.Run(wire, func(t *testing.T) { testShardHealthTracksFaults(t, wire == "http") })
	}
}

func testShardHealthTracksFaults(t *testing.T, overHTTP bool) {
	srv := server.New([]byte("health-secret"), time.Hour)
	srv.RegisterUser("prober", 0)
	var shard client.Transport = client.Local{S: srv}
	if overHTTP {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		shard = client.HTTP{BaseURL: ts.URL}
	}
	ft := &faultyTransport{Transport: shard}
	router, err := NewRouter(ft)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Rejected logins and unknown-list reads are answers, not faults:
	// a run of them past DemoteAfter leaves the shard's record clean.
	for i := 0; i < DemoteAfter; i++ {
		if _, err := router.Login(ctx, "ghost"); !errors.Is(err, server.ErrUnknownUser) {
			t.Fatalf("login of an unknown user: %v", err)
		}
	}
	toks, err := router.Login(ctx, "prober")
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < DemoteAfter; i++ {
		if _, _, err := router.Query(ctx, toks, 1, 0, 1); !errors.Is(err, server.ErrUnknownList) {
			t.Fatalf("read of an unknown list: %v", err)
		}
	}
	if h := router.Health()[0]; h.ConsecutiveFailures != 0 || h.Errors != 0 || h.Demoted {
		t.Fatalf("clean rejections counted as shard faults: %+v", h)
	}

	ft.fail = true
	for i := 0; i < 3; i++ {
		if _, _, err := router.Query(ctx, toks, 1, 0, 1); err == nil {
			t.Fatal("injected fault not surfaced")
		}
	}
	h := router.Health()[0]
	if h.ConsecutiveFailures != 3 || h.Errors != 3 {
		t.Fatalf("after 3 faults: %+v", h)
	}
	if h.LastError == "" || h.LastErrorAt.IsZero() {
		t.Fatalf("last fault not recorded: %+v", h)
	}

	// An answered application rejection (unknown list -> 404 class)
	// proves liveness: the consecutive run resets, totals persist.
	ft.fail = false
	if _, _, err := router.Query(ctx, toks, 1, 0, 1); err == nil {
		t.Fatal("query of an empty list should fail cleanly")
	}
	h = router.Health()[0]
	if h.ConsecutiveFailures != 0 {
		t.Fatalf("clean answer did not reset the run: %+v", h)
	}
	if h.Errors != 3 || h.LastError == "" {
		t.Fatalf("fault history lost: %+v", h)
	}
	if want := uint64(2*DemoteAfter + 5); h.Ops != want { // rejected logins and reads + login + 4 queries
		t.Fatalf("ops = %d, want %d", h.Ops, want)
	}
	if h.InFlight != 0 {
		t.Fatalf("in-flight = %d at rest", h.InFlight)
	}
}
