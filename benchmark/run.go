package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/index"
	"zerberr/internal/obs"
	"zerberr/internal/rank"
	"zerberr/internal/stats"
	"zerberr/internal/store"
	"zerberr/internal/workload"
	"zerberr/internal/zerber"
)

// The measured phase is cut into slices of equal length; throughput
// and latency percentiles are taken per slice and the run reports
// their medians over the slices, so that a stall of a second or two —
// a neighbour on the host, a burst of write-back — moves one or two
// slices and not the result. tailPercentile is the highest percentile
// with at least ten searches beyond it in one slice on every workload.
const (
	slices         = 5
	tailPercentile = 95
)

// sliced is what each slice of a measured phase saw.
type sliced struct {
	opsPerS, searchP50, searchP95, writeP50, writeP95 []float64
	fewest                                            int // searches in the emptiest slice
}

func slice(ops []done, wall time.Duration) sliced {
	var search, write [slices][]float64
	width := wall / slices
	for _, d := range ops {
		i := min(int(d.at/width), slices-1)
		if d.search {
			search[i] = append(search[i], d.ms)
		} else {
			write[i] = append(write[i], d.ms)
		}
	}
	out := sliced{fewest: len(search[0])}
	for i := range search {
		out.opsPerS = append(out.opsPerS, float64(len(search[i])+len(write[i]))/width.Seconds())
		out.fewest = min(out.fewest, len(search[i]))
		if len(search[i]) > 0 {
			out.searchP50 = append(out.searchP50, stats.Median(search[i]))
			out.searchP95 = append(out.searchP95, stats.Percentile(search[i], tailPercentile))
		}
		if len(write[i]) > 0 {
			out.writeP50 = append(out.writeP50, stats.Median(write[i]))
			out.writeP95 = append(out.writeP95, stats.Percentile(write[i], tailPercentile))
		}
	}
	return out
}

// The metric names and units, in the order BENCHMARK.json lists them.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"search_p50_ms", "ms"},
	{"search_p95_ms", "ms"},
	{"wire_bytes_per_search", "B"},
	{"rounds_per_search", "count"},
	{"index_heap_mb", "MB"},
}

var perLayerMetrics = [][2]string{
	{"client.search_ms", "ms"},
	{"client.self_ms", "ms"},
	{"client.elements_per_result", "count"},
	{"client.write_ms", "ms"},
	{"crypt.open_ms", "ms"},
	{"crypt.open_calls", "count"},
	{"crypt.seal_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"transport.rounds", "count"},
	{"transport.request_bytes", "B"},
	{"transport.response_bytes", "B"},
	{"transport.retries", "count"},
	{"cluster.self_ms", "ms"},
	{"cluster.shards_per_round", "count"},
	{"cluster.shard_faults", "count"},
	{"replica.self_ms", "ms"},
	{"replica.hedged_ratio", "ratio"},
	{"replica.failovers", "count"},
	{"server.self_ms", "ms"},
	{"server.requests", "count"},
	{"server.errors", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.bytes_mb", "MB"},
	{"store.query_ms", "ms"},
	{"store.query_calls", "count"},
	{"store.elements_per_call", "count"},
	{"store.query_proved_ms", "ms"},
	{"store.insert_ms", "ms"},
	{"store.remove_ms", "ms"},
	{"store.wal_bytes_per_element", "B"},
	{"store.disk_bytes_per_live_byte", "ratio"},
	{"store.snapshots", "count"},
	{"trace.sum_error_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// run is one invocation of the benchmark, without the process around
// it: it leaves no goroutine, listener or data directory behind,
// whether it returns a result or an error.
func run(ctx context.Context, cfg config) (out output, err error) {
	wl, ok := workloadByName(cfg.workload)
	if !ok {
		return out, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 && cfg.ops <= 0 {
		return out, fmt.Errorf("nothing to measure: -seconds %v, -ops %d", cfg.seconds, cfg.ops)
	}

	began := time.Now()

	// Set-up, several times over so that its time is a median; the
	// last fixture is the one measured.
	var fx *fixture
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("fixture-%d", i))
		t0 := time.Now()
		fx, err = buildFixture(ctx, wl, cfg, dir)
		if err != nil {
			os.RemoveAll(dir)
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			err = fx.close()
			os.RemoveAll(dir)
			if err != nil {
				return out, fmt.Errorf("closing fixture: %w", err)
			}
		}
	}
	defer func() {
		if cerr := fx.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing fixture: %w", cerr)
		}
		os.RemoveAll(fx.dir)
	}()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	cfg.logf("%s: seed %d, %d documents, %d elements in %d lists, set-up %.2fs (median of %d), heap %.1f MB",
		wl.name, cfg.seed, fx.sys.Corpus.NumDocs(), fx.elements, fx.sys.Plan.NumLists(), stats.Median(setups), len(setups), heapMB)

	clients := min(runtime.NumCPU(), 4)
	if cfg.trace {
		clients = 1 // sequential, so that spans nest by time
	}
	warmup := uint64(float64(wl.warmup) * cfg.scale)
	workers, err := newWorkers(ctx, fx, cfg, clients, warmup)
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.stop()
			}
		}
	}()
	if err != nil {
		return out, err
	}

	// The plaintext oracle judges read-only workloads; a stream with
	// writes has no fixed corpus to compare with and is judged by the
	// restart check below.
	readOnly := wl.insert == 0 && wl.remove == 0
	var orc oracle
	var judged, exact atomic.Int64
	var judge func(w *worker, op workload.Op, got []rank.Result) bool
	if readOnly {
		orc = oracle{index.Build(fx.sys.Corpus), fx.sys.Corpus, fx.sys.Store}
		judge = func(w *worker, op workload.Op, got []rank.Result) bool {
			ok, ex := orc.agrees(got, op.Terms, w.readers[w.readerOf(op)].groups)
			judged.Add(1)
			if ex {
				exact.Add(1)
			}
			return ok
		}
	}

	warm, warmWall := phase(ctx, workers, warmup, 0, judge)
	before := fx.counters()

	limit := uint64(math.MaxUint64)
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.ops > 0 {
		limit, deadline = warmup+uint64(cfg.ops), 0
	}
	timed, wall := phase(ctx, workers, limit, deadline, nil)
	after := fx.counters()
	if err := context.Cause(ctx); err != nil {
		return out, err
	}

	// Correctness, off the clock.
	var all tally
	for _, t := range append(warm, timed...) {
		all.attempted += t.attempted
		all.failed += t.failed
		if all.firstErr == nil {
			all.firstErr = t.firstErr
		}
	}
	var sum tally
	for i, t := range timed {
		sum.attempted += t.attempted
		sum.failed += t.failed
		sum.done = append(sum.done, t.done...)
		sum.bytes += t.bytes
		sum.rounds += t.rounds
		sum.elements += t.elements
		sum.results += t.results
		if !readOnly {
			continue
		}
		for _, a := range t.kept {
			all.attempted++
			if !judge(workers[i], a.op, a.got) {
				all.fail(fmt.Errorf("a timed search's answer differs from the plaintext oracle"))
			}
		}
	}
	searches := 0
	for _, d := range sum.done {
		if d.search {
			searches++
		}
	}
	if searches == 0 {
		return out, fmt.Errorf("no search completed in the measured phase (first error: %v)", all.firstErr)
	}

	out.Metrics = make(map[string]metric)
	if cfg.trace {
		if err := fx.perLayer(ctx, out.Metrics, sum, before, after); err != nil {
			return out, err
		}
		if cfg.traceOut != "" {
			if err := fx.rec.writeTo(cfg.traceOut); err != nil {
				return out, fmt.Errorf("writing spans: %w", err)
			}
			cfg.logf("%s: %d spans written to %s", wl.name, len(fx.rec.spans), cfg.traceOut)
		}
	} else {
		sl := slice(sum.done, wall)
		put := func(name string, v float64) { out.Metrics[name] = metric{v, unitOf(endToEndMetrics, name)} }
		put("setup_s", stats.Median(setups))
		put("ops_per_s", stats.Median(sl.opsPerS))
		put("search_p50_ms", stats.Median(sl.searchP50))
		put("search_p95_ms", stats.Median(sl.searchP95))
		put("wire_bytes_per_search", float64(sum.bytes)/float64(searches))
		put("rounds_per_search", float64(sum.rounds)/float64(searches))
		put("index_heap_mb", heapMB)
		cfg.logf("%s: %d clients, %d ops in %.2fs, %d searches; per %.1fs slice at least %d searches, %d beyond p%d",
			wl.name, clients, sum.attempted, wall.Seconds(), searches,
			wall.Seconds()/slices, sl.fewest, sl.fewest*(100-tailPercentile)/100, tailPercentile)
		cfg.logf("%s: slices: ops/s %.0f, search p50 %.3f, p%d %.3f", wl.name, sl.opsPerS, sl.searchP50, tailPercentile, sl.searchP95)
		if len(sl.writeP50) > 0 {
			cfg.logf("%s: %d writes, write_p50_ms %.3f, write_p95_ms %.3f (medians over slices)",
				wl.name, len(sum.done)-searches, stats.Median(sl.writeP50), stats.Median(sl.writeP95))
		}
	}
	d := after.minus(before)
	cfg.logf("%s: cache hit ratio %.3f, %d evictions, %.1f MB resident; %d snapshots (fewest on one store %d)",
		wl.name, ratio(d.cache.Hits, d.cache.Hits+d.cache.Misses), d.cache.Evictions,
		float64(after.cache.Bytes)/(1<<20), d.snapshots, d.minSnapshots)

	if readOnly {
		cfg.logf("%s: %d answers checked against the plaintext oracle, %d of them where the protocol guarantees the exact top-%d",
			wl.name, judged.Load(), exact.Load(), topK)
	} else {
		n, bad, err := fx.restartCheck(ctx, cfg)
		if err != nil {
			return out, fmt.Errorf("restart check: %w", err)
		}
		all.attempted += n
		for _, b := range bad {
			all.fail(b)
		}
	}

	cfg.logf("%s: phases: set-up %.1fs, warm-up %.1fs, measured %.1fs, whole run %.1fs",
		wl.name, stats.Sum(setups), warmWall.Seconds(), wall.Seconds(), time.Since(began).Seconds())
	out.Attempted, out.Failed = all.attempted, all.failed
	out.Correct = all.failed == 0
	if all.firstErr != nil {
		cfg.logf("%s: %d of %d failed; first: %v", wl.name, all.failed, all.attempted, all.firstErr)
	}
	return out, nil
}

// counters is a reading of the counters the layers keep themselves.
type counters struct {
	cache        cache.Stats // summed over the servers' result caches
	snapshots    uint64      // completed snapshot+compaction cycles, all stores
	minSnapshots uint64      // … on the store that completed fewest
	hedges       uint64
	failovers    uint64
	shardFaults  uint64
	replicaReads uint64 // batched reads into replica sets; counted in a traced run only
}

func (fx *fixture) counters() counters {
	var c counters
	c.minSnapshots = math.MaxUint64
	for _, n := range fx.nodes {
		if s, ok := n.srv.CacheStats(); ok {
			c.cache.Hits += s.Hits
			c.cache.Misses += s.Misses
			c.cache.Evictions += s.Evictions
			c.cache.Bytes += s.Bytes
		}
		snaps := n.reg.Counter(store.MetricSnapshotsTotal, "snapshots attempted by result", obs.Label{Name: "result", Value: "ok"}).Value()
		c.snapshots += snaps
		c.minSnapshots = min(c.minSnapshots, snaps)
	}
	for _, set := range fx.sets {
		s := set.Stats()
		c.hedges += s.Hedges
		c.failovers += s.Failovers
	}
	for _, t := range fx.replicaT {
		c.replicaReads += t.calls.Load()
	}
	if fx.router != nil {
		for _, h := range fx.router.Health() {
			c.shardFaults += h.Errors
		}
	}
	return c
}

func (a counters) minus(b counters) counters {
	a.cache.Hits -= b.cache.Hits
	a.cache.Misses -= b.cache.Misses
	a.cache.Evictions -= b.cache.Evictions
	a.snapshots -= b.snapshots
	a.minSnapshots -= b.minSnapshots
	a.hedges -= b.hedges
	a.failovers -= b.failovers
	a.shardFaults -= b.shardFaults
	a.replicaReads -= b.replicaReads
	return a
}

// restartCheck is the durability check of a workload with writes.
// With the stream quiesced it answers a fixed set of probe searches
// and counts every list on every store, restarts every store from its
// data directory, and does both again: every acknowledged write must
// be readable after the restart and nothing may have been invented.
// It returns the number of comparisons made and the ones that failed.
func (fx *fixture) restartCheck(ctx context.Context, cfg config) (int, []error, error) {
	const probes = 64
	var terms [][]corpus.TermID
	for op := range workload.Stream(fx.sys.Corpus, workload.StreamConfig{SearchFrac: 1}, cfg.seed+1) {
		if terms = append(terms, op.Terms); len(terms) == probes {
			break
		}
	}
	type state struct {
		answers [][]rank.Result
		lists   []map[zerber.ListID]int
	}
	read := func() (state, error) {
		var st state
		cl, err := fx.newClient(ctx, writer, fx.sys.AllGroups(), crypt.GCMCodec{})
		if err != nil {
			return st, err
		}
		for _, q := range terms {
			res, _, err := cl.Search(ctx, q, topK)
			if err != nil {
				return st, err
			}
			st.answers = append(st.answers, res)
		}
		for _, n := range fx.nodes {
			ids, err := n.durable.Lists()
			if err != nil {
				return st, err
			}
			counts := make(map[zerber.ListID]int, len(ids))
			for _, id := range ids {
				if counts[id], err = n.durable.Len(id); err != nil {
					return st, err
				}
			}
			st.lists = append(st.lists, counts)
		}
		return st, nil
	}
	before, err := read()
	if err != nil {
		return 0, nil, err
	}
	if err := fx.restart(); err != nil {
		return 0, nil, err
	}
	after, err := read()
	if err != nil {
		return 0, nil, err
	}
	var bad []error
	for i := range terms {
		if !reflect.DeepEqual(before.answers[i], after.answers[i]) {
			bad = append(bad, fmt.Errorf("probe %d answers differently after the restart", i))
		}
	}
	for i := range before.lists {
		if !reflect.DeepEqual(before.lists[i], after.lists[i]) {
			bad = append(bad, fmt.Errorf("store %d holds different per-list element counts after the restart", i))
		}
	}
	return len(terms) + len(before.lists), bad, nil
}

func unitOf(table [][2]string, name string) string {
	for _, m := range table {
		if m[0] == name {
			return m[1]
		}
	}
	panic("benchmark: metric " + name + " is not in the table")
}

// ratio is a/b, and 0 where there was nothing to divide by.
func ratio[T uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
