package zerberr_test

// Storage-engine benchmarks: the durable path (internal/store) from
// day one, alongside the figure and protocol benches in bench_test.go.
// BenchmarkStoreAppend measures the logged insert hot path (one WAL
// record framed, checksummed and pushed per op),
// BenchmarkStoreAppendParallel the group-committed concurrent variant,
// and BenchmarkStoreRecover cold starts — full replay and the
// mmap-backed lazy path's time to first query.
//
// The hot-path benches (query follow-ups, cached queries, appends)
// live in internal/microbench, shared with `zerber-bench -json` so CI
// gating and BENCH_*.json snapshots measure exactly this code.

import (
	"testing"

	"zerberr/internal/microbench"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

func BenchmarkStoreAppend(b *testing.B) {
	b.Run("fsync=false", microbench.StoreAppend)
	b.Run("fsync=true", microbench.StoreAppendFsync)
}

// BenchmarkStoreAppendParallel is the write-path overhaul's headline
// number: concurrent durable inserts with the synchronous per-op
// commit (window=0) versus the group committer at the default window.
// Grouped appends share one coalesced WAL write per batch, which is
// what keeps "durable" within a small factor of the RAM-only
// StoreMemoryInsert floor (run with `zerber-bench -fsync-each` to see
// the amortization against real fsyncs).
func BenchmarkStoreAppendParallel(b *testing.B) {
	b.Run("window=0", microbench.StoreAppendParallelSync)
	b.Run("grouped", microbench.StoreAppendParallelGrouped)
}

func BenchmarkStoreMemoryInsert(b *testing.B) {
	microbench.MemoryInsert(b)
}

// BenchmarkQueryFollowup is the Section 5.2 hot path at depth: the
// deep follow-up rounds of a progressive query against a 120k-element
// list whose elements spread over 8 groups, with the caller allowed to
// see half of them. Every follow-up round re-executes the
// access-filtered ranked range with a doubled count, so the workload
// is the doubling tail (offset 10k/20k/40k) where the old path
// rescanned the whole visible prefix each time. The "indexed" case is
// the per-group sorted read path; "scan" is the pre-rework filter-scan
// it replaced. Each iteration runs the three rounds.
func BenchmarkQueryFollowup(b *testing.B) {
	b.Run("indexed", microbench.QueryFollowupIndexed)
	b.Run("scan", microbench.QueryFollowupScan)
}

// BenchmarkQueryCached is the repeated-query path at the server layer:
// the same deep follow-up windows requested over and over, as hot
// terms see under heavy traffic. "hit" serves them from the
// version-keyed result cache (after a warming pass); "uncached" pays
// the full probe-and-merge read every time. Both include token
// validation; results are element-identical by construction (the
// differential tests prove it), so the delta is pure recomputation
// saved.
func BenchmarkQueryCached(b *testing.B) {
	b.Run("hit", microbench.QueryCachedHit)
	b.Run("uncached", microbench.QueryCachedUncached)
}

// BenchmarkInstrumentedQuery is BenchmarkQueryCached/hit with the ops
// plane armed: a live metrics registry observing every round and
// admission control checking (never refusing) every op. The delta
// against the plain cached hit is the full hot-path cost of
// observability — the CI gate keeps it under a few percent.
func BenchmarkInstrumentedQuery(b *testing.B) {
	b.Run("hit", microbench.QueryInstrumentedHit)
}

// BenchmarkProofQuery prices verifiable search on the same deep
// follow-up windows as BenchmarkQueryCached: "proved" is the server
// building an audited window (range multiproofs over the warmed
// commitment), "verify" the client checking one before decryption.
// Plain unproven queries never touch this path — QueryCached/hit's
// own gate proves audit-on-demand costs the hot path nothing.
func BenchmarkProofQuery(b *testing.B) {
	b.Run("proved", microbench.ProofQueryProved)
	b.Run("verify", microbench.ProofQueryVerify)
}

// BenchmarkStoreRecover measures cold starts. The wal-only/snapshot
// subs replay a 20k-element dir end to end (NumElements touches only
// list metadata, so they bound the open-time scan); the first-query
// subs are the restart-latency story — open a 100k-element, 512-list
// snapshot and answer one query, with the snapshot mmapped and decoded
// lazily.
func BenchmarkStoreRecover(b *testing.B) {
	b.Run("first-query/mmap", microbench.StoreRecoverMmap)
	const elements = 20000
	for _, mode := range []struct {
		name     string
		snapshot bool
	}{
		{"wal-only", false},
		{"snapshot", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < elements; i++ {
				if err := d.Insert(zerber.ListID(i%64), microbench.BenchElement(i)); err != nil {
					b.Fatal(err)
				}
			}
			if mode.snapshot {
				if err := d.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nd, err := store.OpenDurable(dir, store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if n, err := nd.NumElements(); err != nil || n != elements {
					b.Fatalf("recovered %d elements (err=%v), want %d", n, err, elements)
				}
				if err := nd.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
