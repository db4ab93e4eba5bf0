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
// four consecutive elements of a group's run, hashed in one call
// (Bucketer). A tree node over n leaves has a child over each run of
// the largest power of four below n (merkle.go), so the shape is a
// function of the count and a contiguous leaf range has one
// deterministic multiproof. Roots of the earlier formats do not verify
// under this one — neither those of the binary RFC 6962 trees nor those
// of four-ary trees with one leaf per element — so a root pinned from
// either must be pinned again.
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

// BucketSize is how many consecutive elements of a group's run one
// leaf of its tree commits: a constant of the format, like logArity.
// Hashing is priced per SHA-256 call more than per 64-byte block, and a
// bucket of four 44-byte payloads is one 213-byte call where four leaves
// and the node over them were five.
const BucketSize = 4

// NumBuckets is the number of buckets, and so of tree leaves, of an
// n-element run: ⌈n/BucketSize⌉, the last bucket partial when
// BucketSize does not divide n.
func NumBuckets(n int) int {
	return n/BucketSize + min(n%BucketSize, 1)
}

// A Bucketer hashes a group's run, fed to it in rank order, into the
// leaves of the run's tree: bucket i commits the run's elements
// [i×BucketSize, (i+1)×BucketSize) as H(0x00 || for each element: TRS
// as 8-byte big-endian IEEE bits || uvarint(len(sealed)) || sealed),
// in one SHA-256 call. The group is deliberately absent — it is bound
// by which group's tree the bucket lives in. The zero Bucketer is
// ready; reusing one reuses its buffer.
type Bucketer struct {
	buf []byte // the open bucket's input: the domain byte, then its elements
	n   int    // elements in the open bucket
}

// Add feeds the run's next element. When the element completes a bucket
// it returns the bucket's hash and true.
func (b *Bucketer) Add(trs float64, sealed []byte) (Hash, bool) {
	if b.n == 0 {
		b.buf = append(b.buf[:0], domainLeaf)
	}
	b.buf = appendElement(b.buf, trs, sealed)
	if b.n++; b.n < BucketSize {
		return Hash{}, false
	}
	return b.Flush()
}

// Flush closes the open partial bucket at the end of a run: its hash
// and true, or false when no element is open.
func (b *Bucketer) Flush() (Hash, bool) {
	if b.n == 0 {
		return Hash{}, false
	}
	b.n = 0
	return sha256.Sum256(b.buf), true
}

// appendElement appends one element's share of a bucket's hash input.
func appendElement(buf []byte, trs float64, sealed []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(trs))
	buf = binary.AppendUvarint(buf, uint64(len(sealed)))
	return append(buf, sealed...)
}

// interiorHash combines the roots of a node's two to four children, in
// order: H(0x01 || children...).
func interiorHash(children ...Hash) Hash {
	var buf [1 + arity*HashSize]byte
	buf[0] = domainNode
	n := 1
	for i := range children {
		n += copy(buf[n:], children[i][:])
	}
	return sha256.Sum256(buf[:n])
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
