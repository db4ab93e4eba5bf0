// Package proof implements the Merkle commitment scheme behind
// verifiable search: each merged posting list is committed as one
// four-ary Merkle tree per group over that group's rank-ordered run,
// the per-group roots are folded into a content root over the sorted
// group headers, and the content root is bound to the list's mutation
// version to form the list root a server advertises.
//
// The commitment lets an untrusted shard prove, per ranked window it
// serves, both inclusion (every returned element is committed at the
// claimed rank position of its group) and adjacency (the window is
// complete — the elements skipped before it and withheld after it
// provably rank outside it), reducing what a client must trust from
// "the server answered honestly" to "the server advertises one
// consistent root per (list, version)". Root authenticity is
// out-of-band by design: clients pin roots across the rounds of one
// search, replicas cross-check roots between members, and migration
// compares version-free content roots across a copy — a server that
// commits to a wrong index state is indistinguishable from a server
// whose index is that state, and is caught exactly when two of those
// channels disagree (or a full-window audit walks the commitment).
//
// Hashing is SHA-256 throughout with one-byte domain separation:
// 0x00 leaves, 0x01 interior nodes, 0x02 group headers, 0x03 the
// content root, 0x04 the version-bound list root. A leaf is a bucket of
// consecutive elements of a group's run, hashed in one call
// (Bucketer), whose end the boundary rule draws from content
// (EndsBucket): a write re-cuts the bucket it lands in and usually one
// more, never every bucket behind it. A tree node over n leaves has a
// child over each run of the largest power of four below n (merkle.go),
// so the shape is a function of the bucket count and a contiguous leaf
// range has one deterministic multiproof; a node commits its children's
// element counts, which place a range in the run. Roots of the earlier
// formats do not verify under this one — neither those of the binary
// RFC 6962 trees, nor those of four-ary trees with one leaf per element
// or with rank-indexed buckets of four and uncounted nodes — so a root
// pinned from any of them must be pinned again.
package proof

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// HashSize is the byte length of every digest in the scheme.
const HashSize = sha256.Size

// Hash is one SHA-256 digest. The wire frame carries its 32 raw bytes
// (server/wire.go); in JSON — what `zerber wire` prints — it is
// lowercase hex.
type Hash [HashSize]byte

// String renders the full digest as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// MarshalJSON implements json.Marshaler (lowercase hex).
func (h Hash) MarshalJSON() ([]byte, error) {
	return json.Marshal(hex.EncodeToString(h[:]))
}

// UnmarshalJSON implements json.Unmarshaler, requiring exactly 64 hex
// characters.
func (h *Hash) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("proof: bad hash: %w", err)
	}
	if len(raw) != HashSize {
		return fmt.Errorf("proof: bad hash: %d bytes, want %d", len(raw), HashSize)
	}
	copy(h[:], raw)
	return nil
}

// Domain-separation prefixes. Every hash in the scheme starts with
// exactly one of these, so no input to one role can collide with an
// input to another.
const (
	domainLeaf    = 0x00 // a bucket of elements
	domainNode    = 0x01
	domainHeader  = 0x02
	domainContent = 0x03
	domainList    = 0x04
)

// The boundary rule: a bucket ends after an element whose sealed bytes
// meet cutAfter once it holds at least MinBucket elements, or else when
// it holds MaxBucket; the last bucket of a run also ends with the run.
// With cutAfter holding for about one payload in three, a bucket holds
// 3.8 elements on average. Boundaries are drawn from content, not from
// rank, so an insert or a remove changes the buckets from the one it
// lands in to where the partition meets its old boundaries again —
// usually one or two (the Merkle Search Tree idea, Auvolat & Taïani
// 2019) — and not every bucket behind it. MinBucket, MaxBucket and
// cutAfter are constants of the format, like logArity.
const (
	MinBucket = 2
	MaxBucket = 8
)

// EndsBucket reports whether a bucket holding n elements, the last of
// them sealed, ends after it under the boundary rule.
func EndsBucket(n int, sealed []byte) bool {
	return n >= MaxBucket || n >= MinBucket && cutAfter(sealed)
}

// cutAfter is the boundary predicate over an element's sealed bytes:
// its last eight bytes (zero-padded when it is shorter) as a
// little-endian word, xored with its length and put through the
// SplitMix64 finalizer, taken modulo 3. It is no commitment — the bucket
// hash is — only a function of content that prover and verifier both
// evaluate, once per element, so it reads one word: a sealed element
// ends in its authentication tag, which is pseudorandom, so the
// predicate holds for one payload in three.
func cutAfter(sealed []byte) bool {
	var h uint64
	if n := len(sealed); n >= 8 {
		h = binary.LittleEndian.Uint64(sealed[n-8:])
	} else {
		var w [8]byte
		copy(w[:], sealed)
		h = binary.LittleEndian.Uint64(w[:])
	}
	h ^= uint64(len(sealed))
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return (h^h>>31)%3 == 0
}

// A Node is one subtree of a group's tree as its parent commits it: the
// number of elements it spans and its root. A leaf is a bucket, whose
// count is its size.
type Node struct {
	Count int  `json:"count"`
	Root  Hash `json:"root"`
}

// maxCount bounds a subtree's element count: a group holds fewer than
// 2^32 elements, and the verifier refuses a node that claims more, so
// that no sum of hostile counts overflows.
const maxCount = 1<<32 - 1

// Buckets is a run's bucket sequence, the leaves of its tree: bucket i
// holds Sizes[i] elements and hashes to Hashes[i]. Two slices rather
// than one of Nodes, because a size fits a byte and an audited group
// keeps its buckets for as long as it lives.
type Buckets struct {
	Hashes []Hash
	Sizes  []uint8
}

// Len is the number of buckets.
func (b Buckets) Len() int { return len(b.Hashes) }

func (b Buckets) node(i int) Node { return Node{Count: int(b.Sizes[i]), Root: b.Hashes[i]} }

// A Bucketer hashes a group's run, fed to it in rank order, into the
// leaves of the run's tree: each bucket the boundary rule draws commits
// its elements as H(0x00 || for each element: TRS as 8-byte big-endian
// IEEE bits || uvarint(len(sealed)) || sealed), in one SHA-256 call.
// The group is deliberately absent — it is bound by which group's tree
// the bucket lives in. The zero Bucketer is ready; reusing one reuses
// its buffer.
type Bucketer struct {
	buf []byte // the open bucket's input: the domain byte, then its elements
	n   int    // elements in the open bucket
}

// Add feeds the run's next element. When the boundary rule ends the
// bucket after it, Add returns the bucket and true.
func (b *Bucketer) Add(trs float64, sealed []byte) (Node, bool) {
	if b.n == 0 {
		if b.buf == nil {
			// Room for a bucket of MaxBucket sealed elements, so that a
			// run's hashing allocates once.
			b.buf = make([]byte, 0, 1+MaxBucket*96)
		}
		b.buf = append(b.buf[:0], domainLeaf)
	}
	b.buf = appendElement(b.buf, trs, sealed)
	if b.n++; !EndsBucket(b.n, sealed) {
		return Node{}, false
	}
	return b.Flush()
}

// Flush closes the open bucket at the end of a run: the bucket and
// true, or false when no element is open.
func (b *Bucketer) Flush() (Node, bool) {
	if b.n == 0 {
		return Node{}, false
	}
	n := b.n
	b.n = 0
	return Node{Count: n, Root: sha256.Sum256(b.buf)}, true
}

// appendElement appends one element's share of a bucket's hash input.
func appendElement(buf []byte, trs float64, sealed []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(trs))
	buf = binary.AppendUvarint(buf, uint64(len(sealed)))
	return append(buf, sealed...)
}

// interiorHash combines a node's two to four children, in order, into
// the node: H(0x01 || per child: uvarint(count) || root), spanning the
// children's elements. A node of a real group (counts below 2^32) is
// at most 149 bytes, three SHA-256 blocks, as it was before the counts;
// the buffer holds any count, so that a hostile one is refused by the
// verifier's checks rather than by a panic.
func interiorHash(children ...Node) Node {
	var buf [1 + arity*(binary.MaxVarintLen64+HashSize)]byte
	buf[0] = domainNode
	n, count := 1, 0
	for i := range children {
		n += binary.PutUvarint(buf[n:], uint64(children[i].Count))
		n += copy(buf[n:], children[i].Root[:])
		count += children[i].Count
	}
	return Node{Count: count, Root: sha256.Sum256(buf[:n])}
}

// HeaderHash commits one group's run: H(0x02 || varint(group) ||
// uvarint(count) || root). Responses carry it opaque for groups
// outside the caller's view, hiding their counts and roots while
// still letting the caller rebuild the content root — and letting it
// check, from the group IDs carried in clear, that none of its own
// groups was smuggled into an opaque header.
func HeaderHash(group, count int, root Hash) Hash {
	h := sha256.New()
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = domainHeader
	n := 1 + binary.PutVarint(buf[1:], int64(group))
	n += binary.PutUvarint(buf[n:], uint64(count))
	h.Write(buf[:n])
	h.Write(root[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// HeaderEntry is one group's contribution to the content root: the
// group ID in clear plus its header hash.
type HeaderEntry struct {
	Group int
	HH    Hash
}

// ContentRoot folds the group headers — sorted by ascending group ID,
// empty groups omitted — into the list's version-free content digest:
// H(0x03 || uvarint(n) || n × (varint(group) || headerHash)). Being
// version-free makes it the cross-instance identity check: a migrated
// copy holding identical elements has an identical content root even
// though its mutation versions differ.
func ContentRoot(entries []HeaderEntry) Hash {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	buf[0] = domainContent
	h.Write(buf[:1])
	n := binary.PutUvarint(buf[:], uint64(len(entries)))
	h.Write(buf[:n])
	for _, e := range entries {
		n = binary.PutVarint(buf[:], int64(e.Group))
		h.Write(buf[:n])
		h.Write(e.HH[:])
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// ListRoot binds a content root to the list's mutation version:
// H(0x04 || version as 8-byte big-endian || content). This is the
// digest proofs verify against — equal versions with equal roots
// guarantee identical committed content, the same contract the
// version-keyed caches rest on, now cryptographically enforceable.
func ListRoot(version uint64, content Hash) Hash {
	h := sha256.New()
	var buf [9]byte
	buf[0] = domainList
	binary.BigEndian.PutUint64(buf[1:], version)
	h.Write(buf[:])
	h.Write(content[:])
	var out Hash
	h.Sum(out[:0])
	return out
}
