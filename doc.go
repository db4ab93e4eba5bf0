// Package zerberr is a from-scratch Go reproduction of Zerber+R
// (Zerr, Olmedilla, Nejdl, Siberski: "Zerber+R: Top-k Retrieval from a
// Confidential Index", EDBT 2009): a privacy-preserving outsourced
// inverted index that supports server-side top-k ranking without
// revealing term statistics to the index server.
//
// # Architecture
//
// A deployment has three roles:
//
//   - Untrusted index server (internal/server): stores merged posting
//     lists whose elements carry an encrypted payload plus a plaintext
//     transformed relevance score (TRS); ranks by TRS; enforces group
//     ACLs; serves ranked ranges for the progressive top-k protocol.
//     One wire protocol: every operation is a batch (multi-list
//     queries, bulk insert/remove; a single-list call is a batch of
//     one) answered with one structured {code, error, index} error
//     envelope, which lets a multi-term search finish in one
//     round-trip per follow-up round instead of one per list request.
//     Ranked windows and uploads travel as one binary frame whose
//     element record is the one the write-ahead log and the snapshot
//     write (internal/server/wire.go); a client decodes it without
//     copying a payload.
//   - Storage engines (internal/store): the pluggable backends beneath
//     the server — a RAM-only engine and a durable one with a
//     CRC-framed write-ahead log, atomic snapshots and crash recovery,
//     so a restarted server (cmd/zerberd -data-dir) keeps its index.
//     A mutation is one WAL record, written before memory changes
//     (under -fsync-each concurrent writers then share fsyncs, off
//     every lock), and recovery mmaps the snapshot and folds lists in
//     lazily, so a restarted shard answers its first query before the
//     whole index is decoded. See DESIGN.md "Write path".
//     Each merged list is held as per-group sorted sub-lists with
//     per-list locking, so the protocol's hot operation (a ranked
//     range filtered by the caller's groups) is a k-way merge that
//     skips straight to the requested offset instead of scanning the
//     list. Every list carries a mutation version, persisted through
//     crash recovery, and bumped by any insert or remove. Responses
//     carry the version, and conditional sub-queries (a version and a
//     16-byte window tag) let the cluster router revalidate the shard
//     windows it retains (internal/cache) for a few bytes instead of
//     re-fetching them; the server itself caches nothing.
//   - Trusted clients (internal/client): index documents (seal
//     elements under group keys, compute TRS via the published RSTF,
//     upload them as one batched insert) and execute queries
//     (decrypt, filter, follow-up requests with doubling response
//     sizes — all terms' follow-up loops driven as one state machine
//     over the batched transport, one schedule whose QueryStats.Requests
//     is the paper's request count). The API is context-first (v3):
//     every operation takes a context.Context, cancellation and
//     deadlines propagate through every layer down to in-flight HTTP
//     requests, and SearchStream exposes the progressive protocol as
//     an iterator yielding the provisional top-k after every round.
//   - Offline initialization (this package's Setup): trains the
//     relevance score transformation functions on a sample corpus
//     (internal/rstf), builds the r-confidential merge plan
//     (internal/zerber) and provisions keys.
//
// Deployments scale out through a dynamic cluster layer
// (internal/cluster): a Router shards merged lists across servers by
// static hash and implements the same client.Transport, so clients are
// unchanged. Each routing slot can be backed by a replica set
// (internal/replica) — writes apply primary-first then fan to
// replicas, reads ask one member at a time and fail over to the next
// only on a fault, so a dead primary no longer fails queries. A
// primary with a fault run is demoted and read last. Live shard migration
// (Router.Migrate, `zerber migrate`) ships the atomic snapshot while
// writes keep flowing, replays the WAL tail under a brief per-slot
// write barrier, differentially verifies rank-ordered content digests
// and flips an epoch-bumped routing table — all over a MAC-gated admin
// plane (/v3/admin) that is distinct from the user-facing transport.
// See DESIGN.md "Replication & migration".
//
// Reads can be made verifiable (internal/proof): every merged list
// carries a lazily built Merkle commitment — per-group four-ary trees
// over the rank order, group headers binding element counts, a
// version-bound list root — and a client that opts in (WithProof,
// `zerber query -proof`) receives a range multiproof with every
// protocol round showing the returned window is exactly the committed
// ranked range for its groups: complete, ordered, correctly offset,
// with exhaustion proven rather than asserted. Tampering of any kind
// surfaces as ErrProofInvalid before decryption, roots are pinned
// across rounds (equivocation detection) and cross-checked between
// replicas, and `zerber status -roots` / `zerber verify` expose them
// for out-of-band audit. Plain queries never hash — commitments are
// built on first audit and maintained incrementally — and unproven
// responses stay byte-identical, so verification is free until asked
// for. See DESIGN.md "Verifiable search".
//
// Around those roles sits a production ops plane (internal/obs):
// structured log/slog logging with per-request IDs, a dependency-free
// metrics registry served at GET /metrics in Prometheus text format
// (query latency histograms, WAL/snapshot timings, cache hit rates,
// per-shard health), server-side admission control (per-user token
// buckets answering 429, load shedding answering 503, both with
// Retry-After), and a self-healing client transport that retries
// transient failures with capped jittered backoff — metric labels
// never carry term, list or user identity, so observability adds no
// leakage beyond the paper's threat model. See DESIGN.md "Ops plane".
//
// All of those claims are exercised together, not just in unit
// isolation, by a soak/chaos harness (internal/soak, `zerber-bench
// -run soak`): it boots a real sharded, replicated cluster of zerberd
// processes, drives it with a deterministic million-user zipfian
// workload (internal/workload), SIGKILLs members mid-WAL, restarts
// them, and live-migrates shards — while continuously asserting that
// post-recovery answers are element-identical to a shadow oracle of
// acknowledged writes, that no (list, version) window is ever served
// with two different contents, that opted-in proofs never fail
// verification, and that the error rate stays within budget. Every
// runnable artifact — paper figures, extension experiments, the soak
// scenario — is an entry of the one internal/experiments table that
// cmd/zerber-bench resolves -run names against. See DESIGN.md "Soak &
// chaos".
//
// The package root offers the high-level System façade used by the
// examples, the CLI tools and the experiment harness; the internal
// packages are the building blocks a downstream system would embed.
//
// # Quick start
//
//	c := corpus.Generate(corpus.ProfileStudIP(), 1)
//	sys, err := zerberr.Setup(c, zerberr.DefaultConfig())
//	...
//	cl, err := sys.NewClient("john", 0, 1) // groups 0 and 1
//	results, stats, err := cl.Search(ctx, []corpus.TermID{termID}, 10)
//
// or, consuming the evolving top-k as protocol rounds complete:
//
//	for snap, err := range cl.SearchStream(ctx, terms, 10) {
//		...render snap.Results; break to stop early...
//	}
//
// See examples/quickstart and examples/streaming for complete
// runnable programs and DESIGN.md for the paper-to-package map.
package zerberr
