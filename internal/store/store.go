// Package store provides the storage engines behind the untrusted
// index server: a Backend interface over merged posting lists, the
// original RAM-only implementation (Memory), and a durable engine
// (Durable) that layers a CRC-framed write-ahead log and periodic
// snapshots on top of it so a server restart recovers the full index.
//
// Everything a backend stores is already safe to outsource: sealed
// payloads, transformed relevance scores and group IDs (Section 3.1 of
// the paper — the index servers are "largely untrusted" and hold the
// index on outsourced storage). Durability therefore adds no new
// leakage; it only changes where the sealed bytes live.
//
// Each merged list is kept as one sorted sub-list per group. The group
// ID is server-visible anyway (it is what access control filters on),
// so the decomposition leaks nothing new, and it is what makes the hot
// path cheap: a ranked range filtered by the caller's groups is a
// k-way merge over only the allowed sub-lists that skips straight to
// the requested offset, O(offset·polylog + count·k) instead of a scan
// over the whole merged list.
//
// Ownership: the store copies what it keeps. An insert appends each
// payload to its list's slab, so a caller may reuse its buffers as soon
// as the call returns, and nothing on the way in (the wire decoder, WAL
// replay, a migration's tail) copies for it. What the store hands out —
// query results, proof boundaries, views — aliases the slab, capped to
// each payload's length; slab bytes are never rewritten, so those
// aliases stay valid for as long as a caller holds them.
package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// Element is one stored posting element: ciphertext plus the
// server-visible ranking and ACL fields. It is the element a window
// proof verifies (proof.WindowElement), and server.StoredElement aliases
// it too. On disk and on the wire it is the one binary record of
// element.go; the JSON tags only shape what `zerber wire` prints.
type Element = proof.WindowElement

// Less orders elements by descending TRS. Ties are broken by the
// sealed payload bytes, which are indistinguishable from random to the
// server — so tie order carries no term information.
func Less(a, b Element) bool {
	if a.TRS != b.TRS {
		return a.TRS > b.TRS
	}
	return string(a.Sealed) < string(b.Sealed)
}

// Errors returned by backends. The server layer translates these into
// its own API errors.
var (
	// ErrUnknownList reports an operation on a list the backend does
	// not hold.
	ErrUnknownList = errors.New("store: unknown posting list")
	// ErrNotFound reports a Remove for an element the list does not
	// hold.
	ErrNotFound = errors.New("store: element not found")
	// ErrDenied reports a Remove vetoed by the caller's allow
	// predicate.
	ErrDenied = errors.New("store: remove denied")
	// ErrClosed reports an operation on a closed backend.
	ErrClosed = errors.New("store: backend closed")
	// ErrLocked reports a data directory already owned by another
	// live Durable instance (possibly in another process).
	ErrLocked = errors.New("store: data directory locked by another process")
)

// QueryResult is one ranked range of a merged list, filtered to the
// caller's groups.
type QueryResult struct {
	// Elements are the range's elements in rank order. Their Sealed
	// slices alias the list's payload slab, each capped to its own
	// length so an append reallocates instead of reaching a neighbour.
	// Callers must not write through them; the store never rewrites slab
	// bytes, so the aliases stay valid across later inserts, removals
	// and slab rebuilds.
	Elements []Element
	// Exhausted reports that no visible element exists beyond the
	// range, i.e. the filtered view holds at most offset+count
	// elements.
	Exhausted bool
	// Version is the list's mutation version the range was read at
	// (see Backend.Version). It is observed atomically with Elements,
	// so a window retained under it can never mix content from two
	// versions.
	Version uint64
	// Proof is the window's Merkle proof, set only by QueryProved and
	// observed atomically with Elements and Version. Plain Query never
	// sets it, so unproven results are byte-identical to before the
	// commitment scheme existed.
	Proof *proof.Window
	// ProofEnds holds, per proved group of Proof in order, the bucket
	// after the last one its range covers: what proof.Continue trims
	// the proof with. The verifier finds it by cutting the window, so
	// it does not travel.
	ProofEnds []int
}

// BatchInsert is one element of an InsertBatch call.
type BatchInsert struct {
	List    zerber.ListID
	Element Element
}

// BatchRemove is one element of a RemoveBatch call.
type BatchRemove struct {
	List   zerber.ListID
	Sealed []byte
}

// BatchOpError reports which operation of a RemoveBatch failed. It
// unwraps to the sentinel (ErrUnknownList, ErrNotFound, ErrDenied).
type BatchOpError struct {
	Index int
	Err   error
}

func (e *BatchOpError) Error() string { return fmt.Sprintf("batch op %d: %v", e.Index, e.Err) }

func (e *BatchOpError) Unwrap() error { return e.Err }

// Backend is the storage engine beneath server.Server. All
// implementations are safe for concurrent use; access control and
// authentication stay in the server layer above.
type Backend interface {
	// Name identifies the engine ("memory", "durable") for
	// diagnostics such as the /v2/stats endpoint.
	Name() string
	// Insert stores an element into the given merged list, creating
	// the list if needed.
	Insert(list zerber.ListID, el Element) error
	// InsertBatch stores many elements as one operation. Logged
	// engines append a single batched WAL record for the whole batch
	// (splitting only when the encoding would breach the record size
	// bound), so a bulk load costs one framing, one write and one fsync
	// instead of N. Observable semantics are exactly N Inserts in slice
	// order: one version bump per element, identical recovery. An empty
	// batch is a no-op.
	InsertBatch(ops []BatchInsert) error
	// Remove deletes the element whose sealed payload matches exactly:
	// RemoveBatch of one, reporting the bare sentinel.
	Remove(list zerber.ListID, sealed []byte, allow func(group int) bool) error
	// RemoveBatch deletes many elements as one operation, all or none.
	// Each op names a payload; it deletes the rank-first element of its
	// list whose sealed bytes match exactly and that no earlier op of
	// the batch already claimed — what the ops would delete as single
	// Removes in slice order. Before anything changes, allow is called
	// in slice order with the group of exactly the element each op
	// would delete (nil permits all). The first op, in slice order, whose
	// list is unknown (ErrUnknownList), that matches nothing
	// (ErrNotFound) or that allow vetoes (ErrDenied) fails the batch
	// with a *BatchOpError and leaves every list untouched. Resolution
	// and deletion are one critical section under the write locks of
	// the lists the batch touches, so no concurrent writer can come
	// between them. Logged engines append a single batched WAL record
	// (split only at the record size bound), as InsertBatch does.
	// Versions and recovery are exactly those of N Removes: one version
	// bump per element. An empty batch is a no-op.
	RemoveBatch(ops []BatchRemove, allow func(group int) bool) error
	// Query returns up to count elements starting at offset within the
	// list's rank order restricted to the allowed groups (nil allows
	// every group). It is the server's hot path: the cost is the skip
	// to offset plus the size of the range, not the length of the
	// list. offset must be non-negative and count positive.
	Query(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error)
	// QueryProved is Query plus a Merkle window proof in the result's
	// Proof field: inclusion and adjacency for the returned range
	// against the list's committed root at the result's version. It is
	// the audit path, deliberately off the hot one — the first proved
	// read of a list hashes its elements into buckets; later reads
	// reuse them and re-hash only the buckets a mutation re-cut.
	QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error)
	// Commitment reports the list's current Merkle commitment — the
	// version-free content root (cross-instance identity checks, e.g.
	// migration's differential verify) and the version-bound list root
	// proofs verify against. Unknown lists are ErrUnknownList.
	Commitment(list zerber.ListID) (Commitment, error)
	// Version reports the list's mutation version: a per-list counter,
	// monotonic within a backend instance, bumped by every content
	// change (insert or successful remove). The durable backend
	// persists it through snapshots and WAL replay; fresh lists seed it
	// with a random per-instance epoch in the high bits, so no version
	// is ever reused across restarts either. Two reads of one list
	// returning the same version are guaranteed to have observed
	// identical content, which is what makes version-keyed result
	// caching sound. Unknown lists are ErrUnknownList.
	Version(list zerber.ListID) (uint64, error)
	// View calls fn with the list's elements in rank order (descending
	// TRS). The slice is only valid during the call: fn must not
	// retain or mutate it. It materializes the full merged list —
	// maintenance paths (snapshots, the adversary's view) use it, no
	// request does; ranged reads should use Query.
	View(list zerber.ListID, fn func(elems []Element)) error
	// Len reports how many elements the list holds (0 if absent).
	Len(list zerber.ListID) (int, error)
	// Lists returns the IDs of all known lists in ascending order.
	// Lists emptied by removals remain known.
	Lists() ([]zerber.ListID, error)
	// NumLists reports how many merged lists exist, including emptied
	// ones.
	NumLists() (int, error)
	// NumElements reports the total number of stored elements.
	NumElements() (int, error)
	// ExportSnapshot returns a point-in-time dump of the whole backend
	// in the snapshot format (snapshot.go) — every list in rank order
	// with its mutation version —
	// plus the WAL sequence the dump covers (0 for engines without a
	// log). The dump is self-verifying (CRC-framed) and is what live
	// shard migration ships; see migrate.go. A logged engine takes it as
	// one of its own snapshots, so its log restarts after seq.
	ExportSnapshot() (data []byte, seq uint64, err error)
	// ImportSnapshot replaces the backend's entire contents with a
	// dump produced by ExportSnapshot, carrying the source's
	// per-list versions along so version-keyed caches stay coherent
	// across the move. Durable engines persist the imported state
	// before adopting it.
	ImportSnapshot(data []byte) error
	// TailSince returns the mutations logged after the given sequence,
	// in order, as framed WAL records — the tail a migration applies
	// (ApplyTail) on top of a shipped snapshot. Engines without a log
	// return ErrNoTail; a logged engine whose compaction already dropped
	// part of the requested range returns ErrTailTruncated (re-export
	// and try again).
	TailSince(seq uint64) ([]byte, error)
	// Close releases the backend's resources, flushing any buffered
	// state to stable storage first.
	Close() error
}

// Memory is the RAM-only backend: the server's original storage,
// reworked around per-group sorted sub-lists. It is the recovery
// target for Durable and the default for tests and experiments.
//
// Locking is two-level: Memory.mu guards only the map of lists (lists
// are created, never dropped), and every merged list carries its own
// RWMutex — so concurrent sub-queries of a batch touching different
// lists never contend, and readers of one list contend only with
// writers of that list.
type Memory struct {
	mu    sync.RWMutex
	lists map[zerber.ListID]*mergedList
	// lazy holds snapshot-loaded lists not yet touched: the list's raw
	// element region of the snapshot body (possibly an mmap alias)
	// plus enough metadata — count, version — to answer the stats
	// surface without decoding anything. The first real access
	// materializes the list into lists; a list is in exactly one of
	// the two maps. This is what makes recovery latency independent of
	// how many lists the snapshot holds: OpenDurable folds in only the
	// lists the WAL tail touches, and a restarted shard answers its
	// first query after decoding one list, not all of them.
	lazy map[zerber.ListID]*lazyList
	// verBase seeds every freshly created list's version counter: a
	// random per-instance epoch in the high 32 bits. A restarted
	// RAM-only server (or a list recovered only from the WAL tail)
	// therefore cannot re-reach a version observed before the restart
	// by re-counting to it — which is what lets an out-of-process
	// window cache (the cluster router) trust version equality across
	// its shards' lifetimes. Lists loaded from a snapshot keep their
	// persisted absolute counter instead.
	verBase uint64
	// gen counts the snapshot generations freeze has stamped (under mu),
	// and frozen is the one in flight, 0 when none: a writer about to
	// change a list the in-flight snapshot has not reached yet saves an
	// image of it first (mergedList.saveImage).
	gen    uint64
	frozen atomic.Uint64
}

// rec is one stored element of a group's run: its TRS and where its
// payload sits in the list's slab (mergedList.payload). Its group is
// the run's. It holds no pointer, so a run is memory the collector
// never scans, and it takes 16 bytes where an Element with its
// insertion sequence took 48 plus a payload allocation of its own.
type rec struct {
	trs float64
	// off is also the element's list-local insertion sequence: payloads
	// enter the slab in insertion order, a snapshot region holds them in
	// the rank order its writer had (which recovery takes as their
	// order, as it always did), and a rebuild keeps their order. Offsets
	// are unique within a list (an empty payload takes a dead byte), so
	// they break exact (TRS, payload) ties by insertion order — the order
	// the original stable full-list sort produced — and the per-group
	// decomposition is observationally identical to the old single
	// sorted slice.
	off uint32
	n   uint32
}

// grec is a record with its group: a batch's share of a list before it
// splits into its groups' runs.
type grec struct {
	group int
	rec
}

// maxSlab bounds a list's payload offset space, which records address
// with 32 bits: 4 GiB of payloads per list.
const maxSlab = math.MaxUint32

// payloads is a list's payload space. base and slab hold the list's
// payloads, and records address them as one offset space: [0,
// len(base)) is base, the rest is slab. base is a region the list was
// loaded from — its validated snapshot element region, possibly an
// mmap — read and never written; slab is the store's own append-only
// buffer. Bytes below either's length are never rewritten: slab grows
// into its spare capacity or into a new allocation, and a rebuild
// (compact) makes a new one, so every payload handed out stays valid —
// and so does a copy of the two slice headers, which is how a list
// image (listImage) keeps the payloads it was taken with.
type payloads struct {
	base, slab []byte
}

// mergedList holds one merged posting list as one sorted run of
// records per group over one payload slab. An insert lands at its rank
// at once (insertBatch), so every stored element sits in exactly one
// place and a read never writes.
type mergedList struct {
	mu     sync.RWMutex
	groups map[int]*groupList
	payloads
	// live counts the payload bytes of the stored elements; the rest of
	// base and slab is dead. A removal that leaves more dead bytes than
	// live rebuilds the slab, so a list never holds more than twice its
	// payloads.
	live  int
	total int
	// version counts content changes (inserts and successful removes).
	// Reads report it so ranged windows can be cached under a key that
	// a later mutation transparently invalidates.
	version uint64
	// commitVer/commitOK cache the list-level commitment (group headers,
	// content and list root) for one version; a version bump is the invalidation,
	// exactly as for cached query windows.
	commitVer     uint64
	commitOK      bool
	commitHeaders []headerInfo
	commitContent proof.Hash
	commitRoot    proof.Hash
	// snapGen is the latest snapshot generation this list is settled
	// for: the encoder has written it, a writer has saved its image, or
	// it did not exist when the generation was frozen. image is the
	// saved image, until the encoder takes it (snapshot.go).
	snapGen atomic.Uint64
	image   atomic.Pointer[listImage]
}

// payload returns r's payload bytes, capped to their length.
func (p *payloads) payload(r rec) []byte {
	lo, hi := int(r.off), int(r.off)+int(r.n)
	if lo < len(p.base) {
		return p.base[lo:hi:hi]
	}
	lo, hi = lo-len(p.base), hi-len(p.base)
	return p.slab[lo:hi:hi]
}

// element is r as the group's Element, its payload aliasing the slab.
func (ml *mergedList) element(r rec, group int) Element {
	return Element{Sealed: ml.payload(r), TRS: r.trs, Group: group}
}

// less is the total order the read path merges by: descending TRS,
// then payload bytes, then insertion order. Offsets are unique within a
// list, so no two of its records compare equal.
func (p *payloads) less(a, b rec) bool {
	if a.trs != b.trs {
		return a.trs > b.trs
	}
	return p.tie(a, b) < 0
}

// cmp is less as a three-way comparison, for sorting.
func (p *payloads) cmp(a, b rec) int {
	if a.trs != b.trs {
		if a.trs > b.trs {
			return -1
		}
		return 1
	}
	return p.tie(a, b)
}

// tie orders two records of equal TRS.
func (p *payloads) tie(a, b rec) int {
	return cmp.Or(bytes.Compare(p.payload(a), p.payload(b)), cmp.Compare(a.off, b.off))
}

// add appends an inserted element's payload to the slab and returns its
// record. Callers hold the write lock and have reserved slabBytes of
// the payload.
func (ml *mergedList) add(el Element) grec {
	r := rec{trs: el.TRS, off: uint32(len(ml.base) + len(ml.slab)), n: uint32(len(el.Sealed))}
	ml.slab = appendPayload(ml.slab, el.Sealed)
	ml.live += len(el.Sealed)
	return grec{group: el.Group, rec: r}
}

// appendPayload appends p to a slab. An empty payload still takes one
// dead byte, so that no two records share an offset.
func appendPayload(slab, p []byte) []byte {
	if len(p) == 0 {
		return append(slab, 0)
	}
	return append(slab, p...)
}

// slabBytes is what appendPayload adds for a payload of n bytes.
func slabBytes(n int) int { return max(n, 1) }

// reserve makes room in the slab for n more bytes without rewriting
// any byte already in it: the slab's spare capacity, else a new
// allocation with growTo's headroom, the old one left as it was. A list whose payloads would
// outgrow the 32-bit offset space is rebuilt first, and past it — more
// than 4 GiB of live payloads in one list, a size no deployment of the
// protocol approaches — the insert panics rather than wrap an offset.
func (ml *mergedList) reserve(n int) {
	if uint64(len(ml.base)+len(ml.slab)+n) > maxSlab {
		ml.compact()
		if uint64(len(ml.slab)+n) > maxSlab {
			panic(fmt.Sprintf("store: a list's payloads would exceed %d bytes", maxSlab))
		}
	}
	if l := len(ml.slab) + n; l > cap(ml.slab) {
		grown := growTo(ml.slab, l)
		copy(grown, ml.slab)
		ml.slab = grown[:len(ml.slab)]
	}
}

// compact rebuilds the slab into a new allocation holding only the live
// payloads, in offset order so that the offsets keep their order, and
// re-points the records at it; base is dropped. The old slab and base
// stay valid for the payloads already handed out. Callers hold the
// write lock.
func (ml *mergedList) compact() {
	recs := make([]*rec, 0, ml.total)
	size := 0
	for _, g := range ml.groups {
		for i := range g.sorted {
			recs = append(recs, &g.sorted[i])
			size += slabBytes(int(g.sorted[i].n))
		}
	}
	slices.SortFunc(recs, func(a, b *rec) int { return cmp.Compare(a.off, b.off) })
	slab := make([]byte, 0, size)
	for _, r := range recs {
		p := ml.payload(*r)
		r.off = uint32(len(slab))
		slab = appendPayload(slab, p)
	}
	ml.base, ml.slab = nil, slab
}

// groupList is one group's slice of a merged list.
type groupList struct {
	sorted []rec // less-ordered
	// commit is the group's commitment state, nil until the list's first
	// proved read or commitment — audit on demand: the unproven hot path
	// never hashes, and the group lists nobody audits (nearly all of
	// them) carry one nil pointer for it.
	commit *groupCommit
}

// merge inserts add — g's records, less-ordered, every offset above
// the run's — into g's sorted run from the back: each new record finds
// its rank by binary search, and the old records between it and the
// previous one move up as one block. Only the records ranking below the
// first new one move, in place when the run has room, else into a
// buffer with headroom for later inserts (growTo). Callers hold the
// list's write lock. When the group is committed, its buckets are
// re-cut around the ranks the new elements landed at (repartition);
// nothing is hashed here.
func (ml *mergedList) merge(g *groupList, add []grec) {
	n, l := len(g.sorted), len(g.sorted)+len(add)
	src, dst := g.sorted, growTo(g.sorted, l)
	// src[:i+1] is the old run still unplaced. add[j] lands behind the
	// part of it ranking before add[j], src[:p]; the rest moves up by j+1
	// (copy is a memmove, so in place nothing unread is overwritten).
	// ins collects where each new record lands, for a committed group's
	// buckets.
	var insBuf [8]int
	var ins []int
	if g.commit != nil {
		ins = insBuf[:0]
		ins = slices.Grow(ins, len(add))[:len(add)]
	}
	i := n - 1
	for j := len(add) - 1; j >= 0; j-- {
		p := sort.Search(i+1, func(x int) bool { return ml.less(add[j].rec, src[x]) })
		copy(dst[p+j+1:], src[p:i+1])
		dst[p+j] = add[j].rec
		if ins != nil {
			ins[j] = p + j
		}
		i = p - 1
	}
	// The old run's [0, i] ranks before every new element: it stays
	// where it is, or is copied once into a new buffer.
	if cap(src) < l {
		copy(dst, src[:i+1])
	}
	g.sorted = dst
	if ins != nil {
		ml.repartition(g, ins, nil)
	}
}

// growTo returns s extended to length l: s itself when its capacity
// suffices, else a new buffer, whose first len(s) elements the caller
// fills, with 1/8 headroom (at least 4) rounded up to the allocator's
// size class — unless the growth is at least that headroom, when the
// buffer is exact (size class aside): the next growth of that size
// would not fit in the headroom either, and every buffer it moves is at
// least 1/8 longer than the last, so the copying stays linear. A run
// grown a few inserts at a time reallocates once per eighth of its
// length, and a run or slab loaded in large batches carries no slack:
// append's own growth (up to 2×) measured +4.6 % index_heap_mb on deep
// (CHANGES.md), and unconditional 1/8 headroom 69.8 B instead of
// 67.2 B per element in TestBytesPerStoredElement.
func growTo[T any](s []T, l int) []T {
	if l <= cap(s) {
		return s[:l]
	}
	room := max(l/8, 4)
	if l-len(s) >= room {
		room = 0
	}
	return slices.Grow[[]T](nil, l+room)[:l]
}

// lazyList is a snapshot-loaded list awaiting first use: raw is its
// validated element region of the snapshot body, count and version
// the metadata the stats surface answers from. The Once makes
// same-list racers share a single decode.
type lazyList struct {
	once    sync.Once
	ml      *mergedList
	raw     []byte
	count   int
	version uint64
}

// NewMemory creates an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{
		lists:   make(map[zerber.ListID]*mergedList),
		lazy:    make(map[zerber.ListID]*lazyList),
		verBase: uint64(rand.Uint32()) << 32,
	}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// list returns the merged list, materializing a lazily loaded one on
// this first touch, creating a fresh one when create is set.
func (m *Memory) list(id zerber.ListID, create bool) *mergedList {
	m.mu.RLock()
	ml := m.lists[id]
	lz := m.lazy[id]
	m.mu.RUnlock()
	if ml != nil {
		return ml
	}
	if lz != nil {
		return m.materialize(id, lz)
	}
	if !create {
		return nil
	}
	m.mu.Lock()
	ml = m.lists[id]
	lz = m.lazy[id]
	if ml == nil && lz == nil {
		ml = &mergedList{groups: make(map[int]*groupList), version: m.verBase}
		ml.snapGen.Store(m.gen)
		m.lists[id] = ml
	}
	m.mu.Unlock()
	if ml != nil {
		return ml
	}
	return m.materialize(id, lz)
}

// materialize decodes a lazily loaded list and publishes it. The
// decode runs outside m.mu — first touches of different lists decode
// in parallel, and a long decode never blocks lookups of other lists.
func (m *Memory) materialize(id zerber.ListID, lz *lazyList) *mergedList {
	lz.once.Do(func() {
		lz.ml = newMergedListFrom(lz.raw, lz.count, lz.version)
		m.mu.Lock()
		// Publish only if this lazy entry still owns the slot: an
		// ImportSnapshot may have swapped the maps mid-decode, and the
		// pre-import list must not resurrect over imported state (the
		// toucher still gets the pre-import view it started on, same
		// as a reader holding a list pointer across an import).
		if m.lazy[id] == lz {
			lz.ml.snapGen.Store(m.gen)
			m.lists[id] = lz.ml
			delete(m.lazy, id)
		}
		// Under m.mu: a freeze reads the fields of the lazy lists it
		// finds, under the same lock.
		lz.raw = nil
		m.mu.Unlock()
	})
	return lz.ml
}

// loadLazy registers a snapshot list region for deferred decoding
// (snapshot recovery and import).
func (m *Memory) loadLazy(id zerber.ListID, raw []byte, count int, version uint64) {
	m.mu.Lock()
	m.lazy[id] = &lazyList{raw: raw, count: count, version: version}
	m.mu.Unlock()
}

// Insert implements Backend: an InsertBatch of one. It never fails.
func (m *Memory) Insert(list zerber.ListID, el Element) error {
	return m.InsertBatch([]BatchInsert{{List: list, Element: el}})
}

// InsertBatch implements Backend. It never fails.
func (m *Memory) InsertBatch(ops []BatchInsert) error {
	m.insertBatch(ops)
	return nil
}

// insertBatch is the one insert — of live writes, of Durable's logged
// chunks and of WAL replay, one call per record — and the one place a
// payload is copied on its way in: each list's payloads are appended to
// its slab, so the store keeps nothing of the caller's buffers. Each
// list's ops take their offsets — their sequences — in slice order
// under the list's write lock, bumping the version once per element
// (what N single inserts would do), and each group's share is sorted
// and merged into its run.
func (m *Memory) insertBatch(ops []BatchInsert) {
	runs, _ := m.listRuns(len(ops), func(i int) zerber.ListID { return ops[i].List }, true)
	gen := m.frozen.Load()
	var buf [16]grec // a small batch's share of a list needs no allocation
	share := buf[:0]
	for _, run := range runs {
		ml := run.ml
		ml.mu.Lock()
		ml.saveImage(gen)
		size := 0
		for _, i := range run.idxs {
			size += slabBytes(len(ops[i].Element.Sealed))
		}
		ml.reserve(size)
		share = share[:0]
		for _, i := range run.idxs {
			share = append(share, ml.add(ops[i].Element))
		}
		ml.total += len(share)
		ml.version += uint64(len(share))
		slices.SortFunc(share, func(a, b grec) int {
			if a.group != b.group {
				return cmp.Compare(a.group, b.group)
			}
			return ml.cmp(a.rec, b.rec)
		})
		for rest := share; len(rest) > 0; {
			n := 1
			for n < len(rest) && rest[n].group == rest[0].group {
				n++
			}
			g := ml.groups[rest[0].group]
			if g == nil {
				g = &groupList{}
				ml.groups[rest[0].group] = g
			}
			ml.merge(g, rest[:n])
			rest = rest[n:]
		}
		ml.mu.Unlock()
	}
}

// listRun is one list's share of a batch: the indices of the ops
// naming it, in slice order.
type listRun struct {
	ml   *mergedList
	idxs []int
}

// listRuns walks a batch of n ops by list: one run per list, slice
// order kept within it, runs ascending by list ID — the one lock order,
// so overlapping batches cannot deadlock. With create, unknown lists
// are created; otherwise they get no run and firstUnknown is the lowest
// op index naming one (n if none).
func (m *Memory) listRuns(n int, list func(i int) zerber.ListID, create bool) (runs []listRun, firstUnknown int) {
	// One word per op, list ID above op index (n < 2³², far beyond any
	// batch): sorting the words orders the ops by list and, within a
	// list, by index.
	var buf [64]uint64 // a small batch needs no allocation
	keys := buf[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, uint64(list(i))<<32|uint64(i))
	}
	slices.Sort(keys)
	order := make([]int, n)
	lists := 0
	for k, key := range keys {
		order[k] = int(uint32(key))
		if k == 0 || key>>32 != keys[k-1]>>32 {
			lists++
		}
	}
	runs = make([]listRun, 0, lists)
	firstUnknown = n
	for start := 0; start < n; {
		end := start + 1
		for end < n && keys[end]>>32 == keys[start]>>32 {
			end++
		}
		if ml := m.list(zerber.ListID(keys[start]>>32), create); ml != nil {
			runs = append(runs, listRun{ml, order[start:end]})
		} else {
			firstUnknown = min(firstUnknown, order[start])
		}
		start = end
	}
	return runs, firstUnknown
}

// Remove implements Backend.
func (m *Memory) Remove(list zerber.ListID, sealed []byte, allow func(group int) bool) error {
	return oneRemove(m.RemoveBatch([]BatchRemove{{List: list, Sealed: sealed}}, allow))
}

// oneRemove is how a RemoveBatch of one reports its failure: the bare
// sentinel.
func oneRemove(err error) error {
	var be *BatchOpError
	if errors.As(err, &be) {
		return be.Err
	}
	return err
}

// RemoveBatch implements Backend. A list emptied by removals stays
// present (and keeps answering queries with an empty, exhausted view)
// — the original server semantics.
func (m *Memory) RemoveBatch(ops []BatchRemove, allow func(group int) bool) error {
	return m.removeBatch(ops, allow, nil)
}

// victim is one stored element a batched remove resolved to: position
// idx of its group's sorted run.
type victim struct {
	g     *groupList
	group int
	idx   int
	r     rec
}

// removeBatch is RemoveBatch with a commit hook. A non-nil commit runs
// after every op resolved and allow accepted each victim, before
// anything changes, still under the lists' write locks — Durable's WAL
// append lives there, so memory content, the version counters and the
// log advance atomically with respect to every reader: a failed commit
// aborts with the lists (and their versions) untouched and nothing
// intermediate ever observable.
func (m *Memory) removeBatch(ops []BatchRemove, allow func(group int) bool, commit func() error) error {
	runs, firstUnknown := m.listRuns(len(ops), func(i int) zerber.ListID { return ops[i].List }, false)
	for _, run := range runs {
		run.ml.mu.Lock()
	}
	defer func() {
		for _, run := range runs {
			run.ml.mu.Unlock()
		}
	}()
	victims := make([]victim, len(ops))
	var scratch []victim
	for _, run := range runs {
		scratch = run.ml.resolve(ops, run.idxs, victims, scratch)
	}
	for i := range ops {
		switch {
		case i == firstUnknown:
			return &BatchOpError{Index: i, Err: ErrUnknownList}
		case victims[i].g == nil:
			return &BatchOpError{Index: i, Err: ErrNotFound}
		case allow != nil && !allow(victims[i].group):
			return &BatchOpError{Index: i, Err: ErrDenied}
		}
	}
	if commit != nil {
		if err := commit(); err != nil {
			return err
		}
	}
	gen := m.frozen.Load()
	for _, run := range runs {
		scratch = scratch[:0]
		for _, i := range run.idxs {
			scratch = append(scratch, victims[i])
		}
		run.ml.saveImage(gen)
		run.ml.delete(scratch)
	}
	return nil
}

// resolve finds the victims of the ops idxs (indices into ops, all
// naming this list, in slice order): the k-th op naming a payload gets
// the list's k-th instance of it in rank order, and an op naming a
// payload more often than the list holds it keeps the zero victim. The
// list is scanned once per distinct payload — what a single Remove
// always cost — since a batch names few payloads per list: the scan
// reads the contiguous records, and of a record whose length matches
// first one word of its payload, then the rest. (Sealed payloads lead
// with their nonce, so the word tells nearly every stranger apart.)
// matches is scratch space, returned for the next list. Callers hold
// the list's write lock.
func (ml *mergedList) resolve(ops []BatchRemove, idxs []int, victims, matches []victim) []victim {
	for k, i := range idxs {
		sealed := ops[i].Sealed
		if namesPayload(ops, idxs[:k], sealed) {
			continue // resolved with the first op naming it
		}
		long := len(sealed) >= 8
		var head uint64
		if long {
			head = binary.LittleEndian.Uint64(sealed)
		}
		matches = matches[:0]
		for gid, g := range ml.groups {
			for idx, r := range g.sorted {
				if int(r.n) != len(sealed) {
					continue
				}
				p := ml.payload(r)
				if long && binary.LittleEndian.Uint64(p) != head || !bytes.Equal(p, sealed) {
					continue
				}
				matches = append(matches, victim{g: g, group: gid, idx: idx, r: r})
			}
		}
		if len(matches) > 1 {
			sort.Slice(matches, func(a, b int) bool { return ml.less(matches[a].r, matches[b].r) })
		}
		next := 0
		for _, j := range idxs[k:] {
			if next == len(matches) {
				break
			}
			if bytes.Equal(ops[j].Sealed, sealed) {
				victims[j] = matches[next]
				next++
			}
		}
	}
	return matches
}

// namesPayload reports whether one of the ops idxs names sealed.
func namesPayload(ops []BatchRemove, idxs []int, sealed []byte) bool {
	for _, j := range idxs {
		if bytes.Equal(ops[j].Sealed, sealed) {
			return true
		}
	}
	return false
}

// delete removes the resolved victims from the list, bumping its
// version once per element: one filtering pass per touched run, so a
// batch deleting many elements of one group shifts its tail once. A
// committed group's buckets are re-cut around the deleted indices
// (repartition). The payloads stay in the slab as dead bytes until they
// outnumber the live ones, when the slab is rebuilt. Callers hold the
// list's write lock.
func (ml *mergedList) delete(victims []victim) {
	ml.total -= len(victims)
	ml.version += uint64(len(victims))
	for _, v := range victims {
		ml.live -= int(v.r.n)
	}
	slices.SortFunc(victims, func(a, b victim) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.idx, b.idx))
	})
	for len(victims) > 0 {
		n := 1
		for n < len(victims) && victims[n].g == victims[0].g {
			n++
		}
		run, g := victims[:n], victims[0].g
		victims = victims[n:]
		g.sorted = deleteAt(g.sorted, run)
		if g.commit != nil {
			var delBuf [8]int
			del := delBuf[:0]
			for _, v := range run {
				del = append(del, v.idx)
			}
			ml.repartition(g, nil, del)
		}
	}
	if len(ml.base)+len(ml.slab)-ml.live > ml.live {
		ml.compact()
	}
}

// deleteAt removes the elements at the victims' ascending indices from
// s, in place.
func deleteAt[T any](s []T, run []victim) []T {
	w := run[0].idx
	for k, v := range run {
		end := len(s)
		if k+1 < len(run) {
			end = run[k+1].idx
		}
		w += copy(s[w:], s[v.idx+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// Query implements Backend. Out-of-contract arguments are clamped
// (negative offset reads from the top, like the scan it replaced)
// rather than trusted into slice arithmetic.
func (m *Memory) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error) {
	if offset < 0 {
		offset = 0
	}
	if count < 0 {
		count = 0
	}
	ml := m.list(list, false)
	if ml == nil {
		return QueryResult{}, ErrUnknownList
	}
	ml.mu.RLock()
	defer ml.mu.RUnlock()
	res := ml.queryLocked(allowed, offset, count)
	res.Version = ml.version
	return res, nil
}

// Version implements Backend. A lazily loaded list answers from its
// snapshot metadata without materializing: version probes (cache
// revalidation, stats) must stay cheap on a freshly restarted shard.
func (m *Memory) Version(list zerber.ListID) (uint64, error) {
	m.mu.RLock()
	ml := m.lists[list]
	lz := m.lazy[list]
	m.mu.RUnlock()
	if ml == nil {
		if lz == nil {
			return 0, ErrUnknownList
		}
		return lz.version, nil
	}
	ml.mu.RLock()
	defer ml.mu.RUnlock()
	return ml.version, nil
}

// queryLocked answers a ranged read over the allowed groups' sorted
// runs. Callers hold the list lock, read or write.
func (ml *mergedList) queryLocked(allowed map[int]bool, offset, count int) QueryResult {
	res, _ := ml.queryCursorsLocked(allowed, offset, count, false)
	return res
}

// queryCursorsLocked is queryLocked plus, when withCursors is set,
// the per-group committed position range [start, end) the window
// occupies in each allowed non-empty group — exactly what a window
// proof commits to. Cursor capture rides the query's own skip and
// merge, so proving adds no second pass over the runs.
func (ml *mergedList) queryCursorsLocked(allowed map[int]bool, offset, count int, withCursors bool) (QueryResult, map[int][2]int) {
	var lists [][]rec
	var gids []int
	visible := 0
	for gid, g := range ml.groups {
		if allowed != nil && !allowed[gid] {
			continue
		}
		if len(g.sorted) == 0 {
			continue
		}
		lists = append(lists, g.sorted)
		gids = append(gids, gid)
		visible += len(g.sorted)
	}
	var cursors map[int][2]int
	if withCursors {
		cursors = make(map[int][2]int, len(lists))
	}
	// Exhausted iff at most count visible elements remain past offset.
	// Phrased as a subtraction (both operands are bounded by stored
	// sizes) so a huge wire-supplied count cannot overflow offset+count.
	res := QueryResult{Exhausted: visible-offset <= count}
	if offset >= visible {
		// The whole filtered view sits inside the skipped prefix.
		if withCursors {
			for i, run := range lists {
				cursors[gids[i]] = [2]int{len(run), len(run)}
			}
		}
		return res, cursors
	}
	n := min(count, visible-offset)
	if len(lists) == 1 {
		// One allowed group: the filtered view is the run itself.
		run := lists[0]
		res.Elements = make([]Element, n)
		for i := range res.Elements {
			res.Elements[i] = ml.element(run[offset+i], gids[0])
		}
		if withCursors {
			cursors[gids[0]] = [2]int{offset, offset + n}
		}
		return res, cursors
	}
	// Skip the cursors straight to the offset cut, then merge only the
	// window: each output element costs one k-wide minimum scan and a
	// single copy (payloads are aliased, never duplicated).
	cur := make([]int, len(lists))
	ml.skipMerged(lists, cur, offset)
	var starts []int
	if withCursors {
		starts = append([]int(nil), cur...)
	}
	res.Elements = make([]Element, 0, n)
	for len(res.Elements) < n {
		best := -1
		for i, run := range lists {
			if cur[i] >= len(run) {
				continue
			}
			if best < 0 || ml.less(run[cur[i]], lists[best][cur[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		res.Elements = append(res.Elements, ml.element(lists[best][cur[best]], gids[best]))
		cur[best]++
	}
	if withCursors {
		for i := range lists {
			cursors[gids[i]] = [2]int{starts[i], cur[i]}
		}
	}
	return res, cursors
}

// skipMerged advances the cursors past the first skip elements of the
// merged view of the runs without visiting them one by one. Each round
// probes every run with enough elements left at depth step =
// remaining/active; the run whose probe ranks earliest may skip all
// step elements at once: at most step-1 elements of each other run can
// rank before that probe, so its global rank is under remaining and
// everything skipped stays inside the merged prefix. remaining decays
// geometrically, so the skip costs O(k²·log offset) comparisons for k
// runs rather than O(offset).
func (ml *mergedList) skipMerged(lists [][]rec, cur []int, skip int) {
	remaining := skip
	for remaining > 0 {
		active := 0
		for i, run := range lists {
			if cur[i] < len(run) {
				active++
			}
		}
		if active == 0 {
			return
		}
		step := remaining / active
		best := -1
		if step > 1 {
			for i, run := range lists {
				if len(run)-cur[i] < step {
					continue
				}
				if best < 0 || ml.less(run[cur[i]+step-1], lists[best][cur[best]+step-1]) {
					best = i
				}
			}
		}
		if best >= 0 {
			cur[best] += step
			remaining -= step
			continue
		}
		// Tail (or no run has step elements left): pop the earliest
		// head.
		for i, run := range lists {
			if cur[i] >= len(run) {
				continue
			}
			if best < 0 || ml.less(run[cur[i]], lists[best][cur[best]]) {
				best = i
			}
		}
		cur[best]++
		remaining--
	}
}

// View implements Backend: it materializes the full merged list in
// rank order. Ranged reads should use Query; View remains for the
// whole-list paths (the adversary's view, tests).
func (m *Memory) View(list zerber.ListID, fn func(elems []Element)) error {
	ml := m.list(list, false)
	if ml == nil {
		return ErrUnknownList
	}
	ml.mu.RLock()
	defer ml.mu.RUnlock()
	fn(ml.queryLocked(nil, 0, ml.total+1).Elements)
	return nil
}

// Len implements Backend. Lazily loaded lists answer from snapshot
// metadata without materializing.
func (m *Memory) Len(list zerber.ListID) (int, error) {
	m.mu.RLock()
	ml := m.lists[list]
	lz := m.lazy[list]
	m.mu.RUnlock()
	if ml == nil {
		if lz == nil {
			return 0, nil
		}
		return lz.count, nil
	}
	ml.mu.RLock()
	defer ml.mu.RUnlock()
	return ml.total, nil
}

// Lists implements Backend.
func (m *Memory) Lists() ([]zerber.ListID, error) {
	m.mu.RLock()
	out := make([]zerber.ListID, 0, len(m.lists)+len(m.lazy))
	for id := range m.lists {
		out = append(out, id)
	}
	for id := range m.lazy {
		out = append(out, id)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// NumLists implements Backend.
func (m *Memory) NumLists() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.lists) + len(m.lazy), nil
}

// NumElements implements Backend.
func (m *Memory) NumElements() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, ml := range m.lists {
		ml.mu.RLock()
		n += ml.total
		ml.mu.RUnlock()
	}
	for _, lz := range m.lazy {
		n += lz.count
	}
	return n, nil
}

// Close implements Backend. Memory holds no external resources.
func (m *Memory) Close() error { return nil }

// newMergedListFrom builds a merged list from a snapshot's element
// region of n elements, which decodeSnapshot validated. The region
// becomes the list's base, so the payloads stay where they are — for
// an mmap'd snapshot, in the page cache — and only the records are
// built, each group's run allocated once at its exact size. The
// elements are rank-sorted, so their order becomes the tie-breaking
// insertion order, exactly what the merge that produced the snapshot
// encoded. version seeds the list's mutation counter with the value the
// snapshot recorded, so recovery resumes the counter instead of
// restarting it (a restarted counter could re-reach an old version
// with different content, validating stale cached windows). The list
// starts unaudited: its first proved read hashes its buckets.
func newMergedListFrom(raw []byte, n int, version uint64) *mergedList {
	ml := &mergedList{groups: make(map[int]*groupList), payloads: payloads{base: raw[:len(raw):len(raw)]}, version: version, total: n}
	sizes := make(map[int]int)
	eachElement(raw, n, func(group int, _ float64, _, _ int) { sizes[group]++ })
	for gid, size := range sizes {
		ml.groups[gid] = &groupList{sorted: make([]rec, 0, size)}
	}
	eachElement(raw, n, func(group int, trs float64, off, size int) {
		// A group's subsequence of a rank-sorted region is itself sorted
		// (offsets ascend with region order).
		g := ml.groups[group]
		g.sorted = append(g.sorted, rec{trs: trs, off: uint32(off), n: uint32(size)})
		ml.live += size
	})
	return ml
}

// adopt swaps in another Memory's list maps wholesale (snapshot
// import). Readers that already hold a merged-list pointer finish on
// the pre-import state; verBase stays this instance's own, so lists
// minted after the import cannot collide with pre-import versions.
func (m *Memory) adopt(src *Memory) {
	m.mu.Lock()
	m.lists = src.lists
	m.lazy = src.lazy
	m.mu.Unlock()
}

var _ Backend = (*Memory)(nil)
