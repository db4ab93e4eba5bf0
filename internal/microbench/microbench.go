// Package microbench hosts the micro-benchmarks in library form, so
// the go-test bench harness (bench_store_test.go mounts Suite() with
// one loop) and `zerber-bench -o` execute the same code: what CI
// gates with benchstat and what BENCH_*.json snapshots record is one
// table, not drifting copies.
//
// Every benchmark is an ordinary func(*testing.B); zerber-bench drives
// them through testing.Benchmark. Shared fixtures (the 120k-element
// list, the replica sets) are built once per process.
package microbench

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/proof"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// Bench is one named micro-benchmark of the suite.
type Bench struct {
	Name string
	F    func(b *testing.B)
	// MaxAllocs gates the leg's allocations per operation: the
	// package's own test runs every leg once and fails a leg that
	// allocates more. Set at the achieved figure where the count is
	// what the leg is for; legs whose count depends on scheduling or on
	// b.N are Ungated.
	MaxAllocs int64
}

// Ungated is the MaxAllocs of a leg whose allocations are not gated.
const Ungated = -1

// Suite is the only enumeration of the micro-benchmarks: `go test
// -bench` mounts it as BenchmarkMicro/<Name>, `zerber-bench -o`
// writes one line per entry, and CI gates the whole table.
//
// A leg is here only if it gates something the end-to-end benchmark
// (benchmark/, BENCHMARK.json) cannot see; search latency, rounds and
// bytes over a real server are that benchmark's rows, not legs here.
// What benchmark/ cannot see, leg by leg:
//
//   - QueryFollowup/indexed, QueryRound/*, QueryInstrumented/unchanged:
//     allocation counts on the read hot path (benchmark/ reports
//     milliseconds per layer, never allocations), and the 1 µs budget
//     of the ops plane, QueryInstrumented/unchanged over
//     QueryRound/unchanged: the equal-version conditional round (token
//     check, version read, no store read), the smallest base a round
//     has. QueryRound/full is the same windows read in full.
//     QueryRound/tag is the conditional read of a window whose list
//     moved below it — the read plus the tag of the window — which
//     `mixed` pays on most of its router's sub-queries but only ever
//     shows as bytes saved.
//   - ProofQuery/proved: server-side proof assembly alone, at 15k
//     leaves per group — benchmark/'s store.query_proved_ms is the same
//     cost summed over a search's rounds on ≈ 625-leaf groups, where
//     an O(n) proof and an O(log n) one are 13× apart instead of 80×.
//   - ProofQuery/after-write: the first proved window after an insert
//     at a random rank, i.e. the O(n − p) re-hash of the interior
//     nodes behind the insert. `proved` never writes and `mixed`
//     proves every 16th search on lists of tens of elements, so no
//     workload pays it at a size where it shows.
//   - ProofQuery/verify: client-side verification of one deep window,
//     with its allocation gate; benchmark/ has it inside
//     client.self_ms, mixed with ranking and bookkeeping.
//   - ProofQuery/verify-continuation: the same window verified as the
//     continuation of the window before it, which is how every
//     follow-up round of a proved search arrives; its gate counts what
//     recording the next round's Frontier allocates.
//   - StoreAppend*, StoreMemoryInsert: the durable write path against
//     its RAM floor, with and without a real fsync (benchmark/ runs
//     one fsync policy on one disk), into lists that stop at `mixed`'s
//     120 elements (benchPostingList) so ns/op does not grow with b.N.
//   - StoreAppend/during-snapshot: the same serial insert while another
//     goroutine snapshots a 96k-element store in a loop — what a writer
//     pays for the snapshots `mixed` takes every 8192 operations per
//     store, where benchmark/ shows only the sum in ops_per_s.
//   - StoreRemoveBatch: one document's removal (64 elements, one per
//     list) through server.RemoveBatch on lists of `mixed`'s length,
//     without the clients, the wire and the three other servers that
//     share benchmark/'s two cores; and its allocation count.
//   - StoreRecover/*: cold starts, which no steady-state workload pays,
//     and their allocation counts (a recovered element costs its
//     record, never an allocation of its own).
//   - ReplicaRead/*: a replica-set read's own cost over a healthy
//     primary, and the failover hop with a dead primary, a fault
//     benchmark/ never injects.
//   - CryptOpen/*, CryptSeal/aes-gcm: allocations and nanoseconds per
//     posting element under a key that carries its derived ciphers —
//     benchmark/ sees their sum as crypt.open_ms but not the
//     per-element allocation count, which is the gate a re-derivation
//     per element would break first.
//   - CryptPeek/*: the read of one element's doc and term that a
//     search pays for every element of every window it fetches, its
//     own term's or not; benchmark/ counts it inside client.self_ms.
//     A GCM peek allocates nothing (gate 0): a peek that allocated
//     would cost a search one allocation per element again. A compact64
//     peek is its full Open (gate 1, the Feistel scratch).
func Suite() []Bench {
	return []Bench{
		{Name: "QueryFollowup/indexed", F: queryFollowupIndexed, MaxAllocs: 27},
		{Name: "QueryRound/unchanged", F: queryRoundUnchanged, MaxAllocs: 18},
		{Name: "QueryRound/full", F: queryRoundFull, MaxAllocs: 42},
		{Name: "QueryRound/tag", F: queryRoundTag, MaxAllocs: 42},
		{Name: "QueryInstrumented/unchanged", F: queryInstrumentedUnchanged, MaxAllocs: 18},
		{Name: "ProofQuery/proved", F: proofQueryProved, MaxAllocs: 158},
		{Name: "ProofQuery/after-write", F: proofQueryAfterWrite, MaxAllocs: Ungated},
		{Name: "ProofQuery/verify", F: proofQueryVerify, MaxAllocs: 2},
		{Name: "ProofQuery/verify-continuation", F: proofQueryVerifyContinuation, MaxAllocs: 5},
		{Name: "StoreAppend/list=120", F: storeAppend, MaxAllocs: Ungated},
		{Name: "StoreAppend/fsync=true/list=120", F: storeAppendFsync, MaxAllocs: Ungated},
		{Name: "StoreAppend/during-snapshot", F: storeAppendDuringSnapshot, MaxAllocs: Ungated},
		{Name: "StoreRemoveBatch", F: storeRemoveBatch, MaxAllocs: 12},
		{Name: "StoreAppendParallel/fsync=false/list=120", F: func(b *testing.B) { appendParallel(b, false) }, MaxAllocs: Ungated},
		{Name: "StoreAppendParallel/fsync=true/list=120", F: func(b *testing.B) { appendParallel(b, true) }, MaxAllocs: Ungated},
		{Name: "StoreMemoryInsert/list=120", F: memoryInsert, MaxAllocs: Ungated},
		{Name: "StoreRecover/first-query/mmap", F: storeRecoverMmap, MaxAllocs: 574},
		{Name: "StoreRecover/wal-only", F: storeRecoverWAL, MaxAllocs: 83183},
		{Name: "StoreRecover/snapshot", F: storeRecoverSnapshot, MaxAllocs: 111},
		{Name: "ReplicaRead/healthy", F: replicaReadHealthy, MaxAllocs: 7},
		{Name: "ReplicaRead/failover", F: replicaReadFailover, MaxAllocs: 7},
		{Name: "CryptOpen/aes-gcm", F: func(b *testing.B) { cryptOpen(b, crypt.GCMCodec{}) }, MaxAllocs: 1},
		{Name: "CryptSeal/aes-gcm", F: cryptSealGCM, MaxAllocs: Ungated},
		{Name: "CryptOpen/compact64", F: func(b *testing.B) { cryptOpen(b, crypt.Compact64Codec{}) }, MaxAllocs: 1},
		{Name: "CryptPeek/aes-gcm", F: func(b *testing.B) { cryptPeek(b, crypt.GCMCodec{}) }, MaxAllocs: 0},
		{Name: "CryptPeek/compact64", F: func(b *testing.B) { cryptPeek(b, crypt.Compact64Codec{}) }, MaxAllocs: 1},
	}
}

// --- shared 120k-element list fixture -------------------------------

const (
	fixtureElems  = 120_000
	fixtureGroups = 8
	fixtureList   = zerber.ListID(7)
)

// followupRounds is the Section 5.2 doubling tail a progressive query
// replays at depth: the windows a repeated query re-requests. A
// one-element slice of it is a single-list read as it goes on the
// wire, a batch of one.
var followupRounds = []server.ListQuery{
	{List: fixtureList, Offset: 10_000, Count: 1_000},
	{List: fixtureList, Offset: 20_000, Count: 2_000},
	{List: fixtureList, Offset: 40_000, Count: 4_000},
}

var fixtureAllowed = map[int]bool{0: true, 2: true, 4: true, 6: true}

// newBigList builds a 120k-element merged list spread over 8 groups,
// loaded as one batch.
func newBigList() *store.Memory {
	rng := rand.New(rand.NewSource(3))
	m := store.NewMemory()
	ops := make([]store.BatchInsert, fixtureElems)
	for i := range ops {
		sealed := make([]byte, 64)
		rng.Read(sealed)
		ops[i] = store.BatchInsert{List: fixtureList, Element: store.Element{Sealed: sealed, TRS: rng.Float64(), Group: i % fixtureGroups}}
	}
	if err := m.InsertBatch(ops); err != nil {
		panic(err)
	}
	return m
}

// bigList is the one list the read-only legs share, built on first
// use.
var bigList = sync.OnceValue(newBigList)

// queryFollowupIndexed is the Section 5.2 hot path at depth: the deep
// follow-up rounds of a progressive query against the 120k-element
// list, the caller allowed to see half of its 8 groups. Each iteration
// runs the three rounds of the doubling tail through the per-group
// sorted read path.
func queryFollowupIndexed(b *testing.B) {
	mem := bigList()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range followupRounds {
			res, err := mem.Query(fixtureList, fixtureAllowed, r.Offset, r.Count)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Elements) != r.Count {
				b.Fatalf("offset %d: %d elements", r.Offset, len(res.Elements))
			}
		}
	}
}

// --- server fixture --------------------------------------------------

type serverFixture struct {
	plain        *server.Server
	instrumented *server.Server
	toks         []crypt.Token
}

var (
	srvOnce sync.Once
	srvFix  *serverFixture
)

// servers builds (once) two servers over the same warmed 120k-element
// backend and a logged-in token set covering half the groups, mirroring
// the follow-up workload's visibility. The instrumented one has the
// full ops plane armed: a live metrics registry (per-round histogram
// observations on every query) and admission control with a rate far
// above the workload, so every op pays the token-bucket check without
// ever being refused. Its delta over the plain server is the ops
// plane's whole hot-path cost.
func servers() *serverFixture {
	srvOnce.Do(func() {
		mem := bigList()
		secret := []byte("microbench-secret")
		plain := server.NewWithBackend(secret, time.Hour, mem)
		instrumented := server.NewWithBackend(secret, time.Hour, mem)
		instrumented.SetObs(obs.NewRegistry())
		instrumented.SetAdmission(&server.AdmissionConfig{PerUserRate: 1e12, MaxInFlight: 1 << 20})
		plain.RegisterUser("bench", 0, 2, 4, 6)
		instrumented.RegisterUser("bench", 0, 2, 4, 6)
		toks, err := plain.Login(context.Background(), "bench")
		if err != nil {
			panic(err)
		}
		srvFix = &serverFixture{plain: plain, instrumented: instrumented, toks: toks}
	})
	return srvFix
}

// queryRounds drives rounds, one at a time, against s: a conditional
// round must come back Unchanged, any other in full. One pass outside
// the timer enters the tokens in the server's verified-token table.
func queryRounds(b *testing.B, s *server.Server, toks []crypt.Token, rounds []server.ListQuery) {
	ctx := context.Background()
	for round := range rounds {
		if _, err := s.QueryBatch(ctx, toks, rounds[round:round+1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for round, q := range rounds {
			resps, err := s.QueryBatch(ctx, toks, rounds[round:round+1])
			if err != nil {
				b.Fatal(err)
			}
			if r := resps[0]; r.Unchanged != (q.IfVersion != nil) || !r.Unchanged && len(r.Elements) != q.Count {
				b.Fatalf("offset %d: unchanged=%v, %d elements", q.Offset, r.Unchanged, len(r.Elements))
			}
		}
	}
}

// unchangedRounds are the follow-up windows made conditional on the
// list's current version, which nothing moves.
func unchangedRounds(b *testing.B) []server.ListQuery {
	ver, err := bigList().Version(fixtureList)
	if err != nil {
		b.Fatal(err)
	}
	rounds := slices.Clone(followupRounds)
	for i := range rounds {
		rounds[i].IfVersion = &ver
	}
	return rounds
}

// queryRoundUnchanged is the equal-version conditional round: token
// check, version read, and an Unchanged answer, with no store read. It
// is the smallest round a server serves, the base of the ops-plane
// budget.
func queryRoundUnchanged(b *testing.B) {
	f := servers()
	queryRounds(b, f.plain, f.toks, unchangedRounds(b))
}

// queryInstrumentedUnchanged is queryRoundUnchanged with metrics and
// admission armed: every round passes the per-user token bucket and
// lands a histogram observation. Its difference from
// QueryRound/unchanged is the ops plane's budget.
func queryInstrumentedUnchanged(b *testing.B) {
	f := servers()
	queryRounds(b, f.instrumented, f.toks, unchangedRounds(b))
}

// queryRoundFull is the repeated-query path — the same deep follow-up
// windows over and over, as hot terms see — with every repetition
// paying the full probe-and-merge read.
func queryRoundFull(b *testing.B) {
	f := servers()
	queryRounds(b, f.plain, f.toks, followupRounds)
}

// queryRoundTag prices the conditional read of a window whose list
// moved below it: the version read, the store read, and the tag of the
// read compared with the caller's, which answers Unchanged. Outside the
// timer each iteration moves the list with a write at its bottom rank
// (an insert, then its removal), so every sub-query names the version
// before the write.
func queryRoundTag(b *testing.B) {
	mem := writeList()
	s := server.NewWithBackend([]byte("microbench-secret"), time.Hour, mem)
	s.RegisterUser("bench", 0, 2, 4, 6)
	ctx := context.Background()
	toks, err := s.Login(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	ver, err := mem.Version(fixtureList)
	if err != nil {
		b.Fatal(err)
	}
	rounds := slices.Clone(followupRounds)
	tags := make([]server.WindowTag, len(rounds))
	for round := range rounds {
		resps, err := s.QueryBatch(ctx, toks, rounds[round:round+1])
		if err != nil {
			b.Fatal(err)
		}
		tags[round] = server.TagOf(resps[0].Elements, resps[0].Exhausted)
		rounds[round].IfVersion, rounds[round].IfTag = &ver, &tags[round]
	}
	bottom := store.Element{Sealed: []byte("microbench-bottom"), TRS: -1, Group: 0}
	write := func(i int) {
		if i%2 == 0 {
			err = mem.Insert(fixtureList, bottom)
		} else {
			err = mem.Remove(fixtureList, bottom.Sealed, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		write(i)
		b.StartTimer()
		moved := ver
		for round := range rounds {
			resps, err := s.QueryBatch(ctx, toks, rounds[round:round+1])
			if err != nil {
				b.Fatal(err)
			}
			if moved = resps[0].Version; !resps[0].Unchanged || moved == ver {
				b.Fatalf("offset %d: unchanged=%v at version %d", rounds[round].Offset, resps[0].Unchanged, moved)
			}
		}
		ver = moved
	}
	b.StopTimer()
	if b.N%2 == 1 {
		write(b.N) // remove what the last iteration inserted
	}
}

// --- verifiable reads -----------------------------------------------

// proofQueryProved prices the audit path at steady state: QueryProved
// over the warmed 120k-element list, replaying the same deep follow-up
// windows as QueryRound/full. The commitment's leaves are materialized
// once outside the timer (first-touch cost, paid per list lifetime),
// so the measured cost is window assembly plus range-multiproof
// generation — the delta over QueryFollowup/indexed is what an audited
// window costs the server.
func proofQueryProved(b *testing.B) {
	mem := bigList()
	if _, err := mem.QueryProved(fixtureList, fixtureAllowed, 0, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range followupRounds {
			res, err := mem.QueryProved(fixtureList, fixtureAllowed, r.Offset, r.Count)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Elements) != r.Count || res.Proof == nil {
				b.Fatalf("offset %d: %d elements, proof %v", r.Offset, len(res.Elements), res.Proof != nil)
			}
		}
	}
}

// writeList is the writing legs' own copy of the fixture
// (ProofQuery/after-write, QueryRound/tag): they mutate its list and
// each leaves it as it found it, and the read-only legs' windows must
// not move under them.
var writeList = sync.OnceValue(newBigList)

// proofQueryAfterWrite prices what a write costs the next audit: one
// insert at a random rank of one group, then one proved window. The
// insert shifts every later element and leaf of its group, so the
// write pays that shift, and the window the re-hash of the interior
// nodes from the insert's rank to the end of the run (O(n − p), half a 15k-leaf group on average) and
// then the O(log n) proof — the part ProofQuery/proved, which never
// writes, does not see. Outside the timer the element is removed and
// the list audited again, so every iteration starts from the same
// fully cached 120k elements.
func proofQueryAfterWrite(b *testing.B) {
	mem := writeList()
	r := followupRounds[0]
	audit := func() {
		res, err := mem.QueryProved(fixtureList, fixtureAllowed, r.Offset, r.Count)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Elements) != r.Count || res.Proof == nil {
			b.Fatalf("%d elements, proof %v", len(res.Elements), res.Proof != nil)
		}
	}
	audit()
	rng := rand.New(rand.NewSource(21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed := make([]byte, 64)
		rng.Read(sealed)
		el := store.Element{Sealed: sealed, TRS: rng.Float64(), Group: rng.Intn(fixtureGroups)}
		if err := mem.Insert(fixtureList, el); err != nil {
			b.Fatal(err)
		}
		audit()
		b.StopTimer()
		if err := mem.Remove(fixtureList, sealed, nil); err != nil {
			b.Fatal(err)
		}
		audit()
		b.StartTimer()
	}
}

// proofQueryVerify prices the client side: VerifyWindow over the
// deepest follow-up window (4k elements plus boundaries) — the
// per-round cost a WithProof search pays before decrypting anything.
func proofQueryVerify(b *testing.B) {
	r := followupRounds[len(followupRounds)-1]
	res, elems := provedWindow(b, r.Offset, r.Count)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proof.VerifyWindow(res.Proof, fixtureAllowed, r.Offset, r.Count, elems, res.Exhausted, res.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// proofQueryVerifyContinuation is ProofQuery/verify's window verified
// as a search's follow-up round verifies it: as the continuation of the
// window before it (half its size, as the doubling schedule has it),
// against the Frontier that window left, recording the next one.
func proofQueryVerifyContinuation(b *testing.B) {
	r := followupRounds[len(followupRounds)-1]
	before, beforeElems := provedWindow(b, r.Offset-r.Count/2, r.Count/2)
	prev, err := proof.VerifyNext(nil, before.Proof, fixtureAllowed, r.Offset-r.Count/2, r.Count/2, beforeElems, before.Exhausted, before.Version)
	if err != nil {
		b.Fatal(err)
	}
	res, elems := provedWindow(b, r.Offset, r.Count)
	cont := proof.Continue(res.Proof)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proof.VerifyNext(prev, cont, fixtureAllowed, r.Offset, r.Count, elems, res.Exhausted, res.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// provedWindow reads one proved window of the shared list, with its
// elements as the verifier takes them.
func provedWindow(b *testing.B, offset, count int) (store.QueryResult, []proof.WindowElement) {
	res, err := bigList().QueryProved(fixtureList, fixtureAllowed, offset, count)
	if err != nil {
		b.Fatal(err)
	}
	elems := make([]proof.WindowElement, len(res.Elements))
	for i, el := range res.Elements {
		elems[i] = proof.WindowElement{TRS: el.TRS, Sealed: el.Sealed, Group: el.Group}
	}
	return res, elems
}

// --- storage-engine appends -----------------------------------------

// benchElement builds a posting element with a sealed payload of
// realistic size (crypt.SealElement emits ~60-70 bytes).
func benchElement(i int) store.Element {
	sealed := make([]byte, 64)
	for j := range sealed {
		sealed[j] = byte(i >> (j % 4 * 8))
	}
	return store.Element{Sealed: sealed, TRS: float64(i % 997), Group: i % 8}
}

// benchPostingList is the list the append legs' i-th insert goes to:
// each list takes 120 elements — `mixed`'s list length — before the
// next begins, so what a leg prices is an insert into a list of that
// length however large b.N grows.
func benchPostingList(i int) zerber.ListID { return zerber.ListID(i / 120) }

// storeAppend measures the durable insert hot path (one WAL record —
// a batch of one, the record a request writes — framed, checksummed
// and pushed per op; no snapshots, no fsync).
func storeAppend(b *testing.B) { appendSerial(b, false) }

// storeAppendFsync is storeAppend with an fsync per operation: the
// real-disk durability cost, paid in full by a lone writer.
func storeAppendFsync(b *testing.B) { appendSerial(b, true) }

func appendSerial(b *testing.B, fsync bool) {
	dir, err := os.MkdirTemp("", "microbench-wal-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1, FsyncEach: fsync})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Insert(benchPostingList(i), benchElement(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// storeAppendDuringSnapshot is storeAppend into the lists of a
// 96k-element store (800 lists of 120, 8 groups: about a `mixed`
// shard) while another goroutine snapshots it back to back, so that
// nearly every insert lands during an encode, into a list the encoder
// has written or into one it has not reached yet. Every 8000 inserts
// are removed again off the clock, so the store stays within 8 % of
// its size however large b.N grows.
func storeAppendDuringSnapshot(b *testing.B) {
	const lists, perList = 800, 120
	dir, err := os.MkdirTemp("", "microbench-wal-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	fill := make([]store.BatchInsert, 0, lists*perList)
	for i := 0; i < lists*perList; i++ {
		fill = append(fill, store.BatchInsert{List: zerber.ListID(i % lists), Element: benchElement(i)})
	}
	if err := d.InsertBatch(fill); err != nil {
		b.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				stopped <- nil
				return
			default:
			}
			if err := d.Snapshot(); err != nil {
				stopped <- err
				return
			}
		}
	}()
	var added []store.BatchRemove
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el := benchElement(lists*perList + i)
		if err := d.Insert(zerber.ListID(i%lists), el); err != nil {
			b.Fatal(err)
		}
		if added = append(added, store.BatchRemove{List: zerber.ListID(i % lists), Sealed: el.Sealed}); len(added) == 8000 {
			b.StopTimer()
			if err := d.RemoveBatch(added, nil); err != nil {
				b.Fatal(err)
			}
			added = added[:0]
			b.StartTimer()
		}
	}
	b.StopTimer()
	close(stop)
	if err := <-stopped; err != nil {
		b.Fatal(err)
	}
}

// storeRemoveBatch prices a batched remove as `mixed` issues one: a
// document's 64 posting elements, one per merged list, over a durable
// index of 512 lists × 120 elements in 4 groups (the head fixture's
// list length). It goes through server.RemoveBatch — token check, the
// resolve-and-delete under the lists' locks, one WAL record — because
// that is the call that exists on both sides of the change that made
// the backend do the resolving, so the same leg prices either. Outside
// the timer the elements are re-inserted: every iteration finds full
// lists.
// ns/op is per batch; divide by 64 to set it beside StoreAppend.
func storeRemoveBatch(b *testing.B) {
	const lists, perList, victims = 512, 120, 64
	dir, err := os.MkdirTemp("", "microbench-remove-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.NewWithBackend([]byte("microbench-secret"), time.Hour, d)
	defer srv.Close()
	srv.RegisterUser("bench", 0)
	ctx := context.Background()
	toks, err := srv.Login(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	// Elements of groups 1–3 fill the lists; group 0 holds the
	// documents, one element per list each.
	fill := make([]store.BatchInsert, 0, lists*perList)
	for i := 0; i < lists*perList; i++ {
		el := benchElement(i)
		el.Group = 1 + i%3
		fill = append(fill, store.BatchInsert{List: zerber.ListID(i % lists), Element: el})
	}
	if err := d.InsertBatch(fill); err != nil {
		b.Fatal(err)
	}
	docs := make([][]server.InsertOp, lists/victims)
	for n := range docs {
		for v := 0; v < victims; v++ {
			el := benchElement(lists*perList + n*victims + v)
			el.Group = 0
			docs[n] = append(docs[n], server.InsertOp{List: zerber.ListID(n*victims + v), Element: el})
		}
	}
	restore := func(doc []server.InsertOp) {
		if err := srv.InsertBatch(ctx, toks[0], doc); err != nil {
			b.Fatal(err)
		}
	}
	for _, doc := range docs {
		restore(doc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// The timer runs around the removal only, and is off when the
	// deferred Close and RemoveAll run: at the one iteration the
	// allocation gate takes they would otherwise be the measurement.
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		doc := docs[i%len(docs)]
		b.StartTimer()
		ops := make([]server.RemoveOp, len(doc))
		for j, op := range doc {
			ops[j] = server.RemoveOp{List: op.List, Sealed: op.Element.Sealed}
		}
		if err := srv.RemoveBatch(ctx, toks[0], ops); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		restore(doc)
	}
}

// appendParallel measures concurrent durable inserts. Without fsync
// the CI gate compares it against StoreMemoryInsert — the write path's
// whole point is keeping this within a small factor of the RAM-only
// floor. With fsync it sits beside the serial StoreAppend/fsync=true:
// the gap is what concurrent writers save by sharing fsyncs.
func appendParallel(b *testing.B, fsync bool) {
	dir, err := os.MkdirTemp("", "microbench-wal-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1, FsyncEach: fsync})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var ctr atomic.Int64
	b.ReportAllocs()
	// A shard serves many concurrent request handlers regardless of
	// core count — oversubscribe so the log sees the contention a
	// shared fsync exists for (GOMAXPROCS writers on a small box
	// degenerate to one writer per fsync).
	b.SetParallelism(32)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(ctr.Add(1))
			if err := d.Insert(benchPostingList(i), benchElement(i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// memoryInsert is the RAM-only insert floor under StoreAppend.
func memoryInsert(b *testing.B) {
	m := store.NewMemory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Insert(benchPostingList(i), benchElement(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- cold-start recovery --------------------------------------------

const (
	recoverElems = 100_000
	recoverLists = 512
)

var (
	recoverOnce sync.Once
	recoverDir  string
	recoverErr  error
)

// recoverFixture builds (once) a data dir whose snapshot holds 100k
// elements across 512 lists, the cold-start workload of the recovery
// benchmarks. The dir outlives the benchmarks (shared fixture, no
// per-run cleanup hook) and is reclaimed with the OS temp dir.
func recoverFixture() (string, error) {
	recoverOnce.Do(func() {
		dir, err := os.MkdirTemp("", "microbench-recover-*")
		if err != nil {
			recoverErr = err
			return
		}
		d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			recoverErr = err
			return
		}
		batch := make([]store.BatchInsert, 0, 4096)
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			err := d.InsertBatch(batch)
			batch = batch[:0]
			return err
		}
		for i := 0; i < recoverElems; i++ {
			batch = append(batch, store.BatchInsert{
				List:    zerber.ListID(i % recoverLists),
				Element: benchElement(i),
			})
			if len(batch) == cap(batch) {
				if recoverErr = flush(); recoverErr != nil {
					return
				}
			}
		}
		if recoverErr = flush(); recoverErr != nil {
			return
		}
		if recoverErr = d.Snapshot(); recoverErr != nil {
			return
		}
		if recoverErr = d.Close(); recoverErr != nil {
			return
		}
		recoverDir = dir
	})
	return recoverDir, recoverErr
}

// storeRecoverMmap measures time-to-first-query after a restart: the
// snapshot is mmapped, framing is validated in one sequential scan,
// and only the queried list's elements are decoded — the other 511
// lists stay raw bytes. (BENCH_8.json records the read-everything
// recovery this replaced.)
func storeRecoverMmap(b *testing.B) {
	dir, err := recoverFixture()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Query(zerber.ListID(i%recoverLists), nil, 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Elements) != 10 {
			b.Fatalf("first query returned %d elements", len(res.Elements))
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// storeRecoverWAL and storeRecoverSnapshot replay a 20k-element data
// dir end to end — from the log alone, or from a snapshot of it.
// NumElements touches only list metadata, so they bound the open-time
// scan rather than a query.
func storeRecoverWAL(b *testing.B)      { recoverReplay(b, false) }
func storeRecoverSnapshot(b *testing.B) { recoverReplay(b, true) }

func recoverReplay(b *testing.B, snapshot bool) {
	const elements = 20000
	dir, err := os.MkdirTemp("", "microbench-replay-*")
	if err != nil {
		b.Fatal(err)
	}
	// The clean-up stays outside the timed region: os.RemoveAll reads
	// the directory through a buffer os pools, and whether a GC has
	// emptied that pool since the leg before would move the count by 2.
	defer func() {
		b.StopTimer()
		os.RemoveAll(dir)
	}()
	d, err := store.OpenDurable(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < elements; i++ {
		if err := d.Insert(zerber.ListID(i%64), benchElement(i)); err != nil {
			b.Fatal(err)
		}
	}
	if snapshot {
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
}

// --- replica-set reads ----------------------------------------------

// downTransport is a permanently dead shard member: every call is an
// unclassified error, which the replica layer treats as a fault worth
// failing over.
type downTransport struct{}

var errDown = errors.New("microbench: member down")

func (downTransport) Login(context.Context, string) ([]crypt.Token, error) { return nil, errDown }
func (d downTransport) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return client.InsertOne(ctx, d.InsertBatch, tok, list, el)
}
func (d downTransport) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return client.QueryOne(ctx, d.QueryBatch, toks, list, offset, count)
}
func (d downTransport) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return client.RemoveOne(ctx, d.RemoveBatch, tok, list, sealed)
}
func (downTransport) QueryBatch(context.Context, []crypt.Token, []server.ListQuery) (client.BatchQueryResult, error) {
	return client.BatchQueryResult{}, errDown
}
func (downTransport) InsertBatch(context.Context, crypt.Token, []server.InsertOp) error {
	return errDown
}
func (downTransport) RemoveBatch(context.Context, crypt.Token, []server.RemoveOp) error {
	return errDown
}

type replicaFixture struct {
	healthy  *replica.Set // live primary: every read is answered by it
	failover *replica.Set // dead primary: read last once demoted
}

var (
	replOnce sync.Once
	replFix  *replicaFixture
)

// replicaSets builds (once) two primary + one replica sets over the
// shared warmed backend: one healthy (the set's steady-state overhead)
// and one whose primary is down (the failover path's cost). Every
// member is its own server over the same backend, so answers are
// identical whichever member gives them.
func replicaSets() *replicaFixture {
	replOnce.Do(func() {
		f := servers()
		replica1 := client.Local{S: server.NewWithBackend([]byte("microbench-secret"), time.Hour, bigList())}
		healthy, err := replica.NewSet(client.Local{S: f.plain}, replica1)
		if err != nil {
			panic(err)
		}
		failover, err := replica.NewSet(downTransport{}, replica1)
		if err != nil {
			panic(err)
		}
		replFix = &replicaFixture{healthy: healthy, failover: failover}
	})
	return replFix
}

// replicaRead drives the first deep follow-up window through a replica
// set, conditional on the list's current version: every member answers
// it without reading its store, so what is left is the set's own cost.
func replicaRead(b *testing.B, set *replica.Set) {
	f := servers()
	ctx := context.Background()
	round := unchangedRounds(b)[:1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := set.QueryBatch(ctx, f.toks, round)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Responses[0].Unchanged {
			b.Fatalf("%d elements, not unchanged", len(res.Responses[0].Elements))
		}
	}
}

// replicaReadHealthy measures a replica-set read with a healthy
// primary: the read runs inline on the caller's context with no timer,
// goroutine or channel, so the delta over one round of
// QueryRound/unchanged is the set's own bookkeeping (the read order and
// the root check).
func replicaReadHealthy(b *testing.B) { replicaRead(b, replicaSets().healthy) }

// replicaReadFailover is the same read with the primary down: the
// first reads pay the fault plus the failover hop, then demotion
// (replica.DemoteAfter) routes subsequent reads straight to the
// replica — the steady-state price of riding out a dead primary.
func replicaReadFailover(b *testing.B) { replicaRead(b, replicaSets().failover) }

// --- posting-element crypto -----------------------------------------

var cryptElement = crypt.Element{Doc: 4242, Term: 1717, Score: 0.375}

// cryptOpen opens one sealed posting element per iteration, the unit a
// search pays for every element it keeps.
func cryptOpen(b *testing.B, codec crypt.ElementCodec) {
	key := crypt.KeyFromPassphrase("microbench/crypt")
	ct, err := codec.Seal(cryptElement, key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, err := codec.Open(ct, key)
		if err != nil || el.Doc != cryptElement.Doc {
			b.Fatalf("opened %+v, %v", el, err)
		}
	}
}

// cryptPeek reads one sealed element's doc and term per iteration
// through a peeker built once, as a search builds one per group.
func cryptPeek(b *testing.B, codec crypt.ElementCodec) {
	key := crypt.KeyFromPassphrase("microbench/crypt")
	ct, err := codec.Seal(cryptElement, key)
	if err != nil {
		b.Fatal(err)
	}
	p, err := codec.Peeker(key)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, term, err := p.Peek(ct)
		if err != nil || doc != cryptElement.Doc || term != cryptElement.Term {
			b.Fatalf("peeked (%d, %d), %v", doc, term, err)
		}
	}
}

// cryptSealGCM seals one posting element per iteration, the unit
// indexing a document pays per distinct term (nonce from crypto/rand,
// as deployed).
func cryptSealGCM(b *testing.B) {
	key := crypt.KeyFromPassphrase("microbench/crypt")
	codec := crypt.GCMCodec{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Seal(cryptElement, key); err != nil {
			b.Fatal(err)
		}
	}
}
