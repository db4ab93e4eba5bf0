package store

// Verifiable reads: the audit-on-demand side of the store. A list's
// Merkle commitment (internal/proof) is materialized the first time
// anything proved touches the list — the unproven hot path never
// hashes — and maintained from then on: a mutation at rank p re-cuts
// the buckets from p's to where the cut meets the old boundaries again,
// and the next proved read hashes those from the payloads and the
// interior nodes over what changed or moved. Snapshots persist none of it: a
// restarted shard hashes a list's buckets on its first proved read.
// QueryProved serves the same window Query would (same elements, same
// Exhausted, same Version) plus a proof that the window is the exact
// ranked slice of the committed state.

import (
	"encoding/binary"
	"sort"

	"zerberr/internal/proof"
	"zerberr/internal/zerber"
)

// Commitment is a list's current Merkle commitment.
type Commitment struct {
	// Version is the mutation version the commitment was taken at.
	Version uint64
	// Elements is the list's total element count across all groups.
	Elements int
	// Content is the version-free content root: equal iff two lists
	// hold identical elements in identical rank order, regardless of
	// their mutation histories. Migration's differential verify
	// compares it across a copy.
	Content proof.Hash
	// Root is the version-bound list root window proofs verify
	// against: proof.ListRoot(Version, Content).
	Root proof.Hash
}

// groupCommit is an audited group's commitment state (see
// internal/proof), maintained from the first audit on. The run is cut
// into buckets by the boundary rule (proof.EndsBucket), which draws
// boundaries from content: a write re-cuts only the buckets from the
// one it lands in to where the cut meets the old boundaries again, and
// marks those stale; the next audit hashes the stale buckets, straight
// from the payloads, and the interior nodes above them.
type groupCommit struct {
	// sizes cuts sorted into buckets: bucket i holds sizes[i]&sizeMask
	// elements, and staleBucket marks one whose hash the next audit
	// computes. hashes[i] is bucket i's hash once it is not stale: 33
	// bytes per bucket, 8.7 per element.
	sizes  []uint8
	hashes []proof.Hash
	// tree caches the interior nodes over the buckets: a write
	// invalidates those over the buckets it changed in place, and
	// truncates them from the first bucket whose index moved.
	tree proof.Tree
	// root caches the tree's root; rootOK is dropped by any mutation of
	// sorted.
	root   proof.Node
	rootOK bool
}

const (
	staleBucket = 0x80
	sizeMask    = 0x7f
)

func (c *groupCommit) buckets() proof.Buckets {
	return proof.Buckets{Hashes: c.hashes, Sizes: c.sizes}
}

// hashedBuckets, when set, is told how many buckets each audit hashed:
// the tests' count of what a write costs the next audit.
var hashedBuckets func(n int)

// ensureCommittedLocked cuts every group of the list that is not
// audited yet into buckets, all stale: groupRootLocked hashes them.
// Callers hold the write lock.
func (ml *mergedList) ensureCommittedLocked() {
	for _, g := range ml.groups {
		if g.commit != nil {
			continue
		}
		c := &groupCommit{sizes: make([]uint8, 0, len(g.sorted)/proof.MinBucket+1)}
		n := 0
		for i, r := range g.sorted {
			if n++; proof.EndsBucket(n, ml.payload(r)) || i == len(g.sorted)-1 {
				c.sizes = append(c.sizes, uint8(n)|staleBucket)
				n = 0
			}
		}
		c.hashes = make([]proof.Hash, len(c.sizes))
		g.commit = c
	}
}

// groupRootLocked returns the group's cached Merkle root. After a
// mutation it first hashes the stale buckets, one SHA-256 call each,
// and brings the interior-node cache up to date — only the nodes over
// buckets that changed or moved are hashed — so the root and every
// window proof until the next mutation are look-ups. Callers hold the
// write lock with the group committed.
func (ml *mergedList) groupRootLocked(g *groupList) proof.Node {
	c := g.commit
	if !c.rootOK {
		var b proof.Bucketer
		hashed, pos := 0, 0
		for i, s := range c.sizes {
			n := int(s & sizeMask)
			if s&staleBucket != 0 {
				c.hashes[i] = ml.hashBucket(&b, g.sorted[pos:pos+n])
				c.sizes[i] = s &^ staleBucket
				hashed++
			}
			pos += n
		}
		if hashedBuckets != nil {
			hashedBuckets(hashed)
		}
		c.tree.Extend(c.buckets())
		c.root = c.tree.Root(c.buckets())
		c.rootOK = true
	}
	return c.root
}

// hashBucket hashes one bucket of records.
func (ml *mergedList) hashBucket(b *proof.Bucketer, recs []rec) proof.Hash {
	for _, r := range recs {
		if nd, ok := b.Add(r.trs, ml.payload(r)); ok {
			return nd.Root
		}
	}
	nd, _ := b.Flush()
	return nd.Root
}

// locate returns the bucket of sizes that holds run position p and the
// position it starts at; p lies inside the run. It sums eight sizes a
// step: eight sizes of at most proof.MaxBucket cannot carry out of a
// byte.
func locate(sizes []uint8, p int) (i, start int) {
	for ; i+8 <= len(sizes); i += 8 {
		w := binary.LittleEndian.Uint64(sizes[i:]) & 0x7f7f7f7f7f7f7f7f
		s := int(w * 0x0101010101010101 >> 56)
		if start+s > p {
			break
		}
		start += s
	}
	for ; start+int(sizes[i]&sizeMask) <= p; i++ {
		start += int(sizes[i] & sizeMask)
	}
	return i, start
}

// bucketPatch replaces the buckets [b0, b1) of a cut with the new ones
// [n0, n1) of repartition's sizes and hashes; a zero hash goes with a
// stale size.
type bucketPatch struct {
	b0, b1, n0, n1 int
}

// repartition re-cuts a committed group's buckets after one write to
// its run: ins holds the ascending positions the inserted records took
// in the new run, del the ascending positions the removed ones held in
// the old. Each write site re-cuts from the start of the bucket it
// falls in (the cut before it cannot change: it is drawn left to
// right) until a new boundary falls where an old bucket free of sites
// starts — from there on the old cut is the new one. An insert past the
// run's end falls in the last bucket, which it may extend. A re-cut
// bucket holding exactly an old bucket's elements keeps its hash; the
// others are stale. Callers hold the list's write lock.
func (ml *mergedList) repartition(g *groupList, ins, del []int) {
	c, run := g.commit, g.sorted
	c.rootOK = false
	old := c.sizes
	size := func(b int) int { return int(old[b] & sizeMask) }
	nOld := len(run) - len(ins) + len(del)
	// A write re-cuts a few buckets: the patches and their buckets live
	// on the stack unless it re-cuts more.
	var patchBuf [4]bucketPatch
	var sizeBuf [16]uint8
	var hashBuf [16]proof.Hash
	patches, sizes, hashes := patchBuf[:0], sizeBuf[:0], hashBuf[:0]
	// ki and kd count the sites handled; the old bucket bi starts at
	// old position bx, which is past every handled site, so at new
	// position bx+ki-kd.
	ki, kd, bi, bx := 0, 0, 0, 0
	for ki < len(ins) || kd < len(del) {
		site := 0
		if ki < len(ins) {
			site = ins[ki] - ki
		} else {
			site = del[kd]
		}
		if len(old) > 0 {
			i, start := locate(old[bi:], min(site, nOld-1)-bx)
			bi, bx = bi+i, bx+start
		}
		p := bucketPatch{b0: bi, b1: len(old), n0: len(sizes)}
		// ox is the old position of the next old record; ob the old
		// bucket holding it or past it, starting at obx.
		ox, ob, obx := bx, bi, bx
		n, first, last, contiguous := 0, 0, 0, false
		for j := bx + ki - kd; j < len(run); j++ {
			o := -1 // the record's old position, -1 for an inserted one
			if ki < len(ins) && ins[ki] == j {
				ki++
			} else {
				for kd < len(del) && del[kd] == ox {
					ox, kd = ox+1, kd+1
				}
				o, ox = ox, ox+1
			}
			if n++; n == 1 {
				first, contiguous = o, o >= 0
			} else if o < 0 || o != last+1 {
				contiguous = false
			}
			last = o
			if !proof.EndsBucket(n, ml.payload(run[j])) && j < len(run)-1 {
				continue
			}
			s, h := uint8(n)|staleBucket, proof.Hash{}
			if contiguous {
				for ob < len(old) && obx+size(ob) <= first {
					obx, ob = obx+size(ob), ob+1
				}
				if obx == first && size(ob) == n {
					s, h = old[ob], c.hashes[ob]
				}
			}
			sizes, hashes = append(sizes, s), append(hashes, h)
			n = 0
			if j == len(run)-1 || ki < len(ins) && ins[ki] == j+1 {
				continue
			}
			// Aligned when the next record starts an old bucket that no
			// site falls in.
			for kd < len(del) && del[kd] == ox {
				ox, kd = ox+1, kd+1
			}
			for ob < len(old) && obx+size(ob) <= ox {
				obx, ob = obx+size(ob), ob+1
			}
			if ob == len(old) || obx != ox {
				continue
			}
			end := obx + size(ob)
			if kd < len(del) && del[kd] < end || ki < len(ins) && (ins[ki]-ki < end || ob == len(old)-1) {
				continue
			}
			p.b1, bi, bx = ob, ob, obx
			break
		}
		if p.b1 == len(old) {
			// The re-cut reached the run's end: every site is handled.
			ki, kd = len(ins), len(del)
		}
		p.n1 = len(sizes)
		patches = append(patches, p)
	}
	// Splice right to left, so that every patch's indices hold.
	for k := len(patches) - 1; k >= 0; k-- {
		p := patches[k]
		ps, ph := sizes[p.n0:p.n1], hashes[p.n0:p.n1]
		same := min(p.b1-p.b0, len(ps))
		for i := range same {
			if b := p.b0 + i; c.sizes[b] != ps[i] || c.hashes[b] != ph[i] {
				c.tree.Invalidate(b)
			}
		}
		if len(ps) != p.b1-p.b0 {
			c.tree.Truncate(p.b0 + same)
		}
		c.sizes = splice(c.sizes, p.b0, p.b1, ps)
		c.hashes = splice(c.hashes, p.b0, p.b1, ph)
	}
}

// splice replaces s[i:j] with v, growing s as growTo does.
func splice[T any](s []T, i, j int, v []T) []T {
	n := len(s) - (j - i) + len(v)
	out := s
	if n > len(s) {
		out = growTo(s, n)
		if cap(s) < n {
			copy(out, s[:i])
		}
	}
	copy(out[i+len(v):n], s[j:])
	copy(out[i:], v)
	if n < len(s) {
		clear(s[n:])
	}
	return out[:n]
}

// headerInfo is one non-empty group's header material, used both for
// building response windows and for the content root.
type headerInfo struct {
	gid   int
	g     *groupList
	count int
	root  proof.Hash
	hh    proof.Hash
}

// commitLocked returns the list's sorted group headers plus its
// content and list roots. They are kept per version: a version bump is
// the only invalidation, and the group roots behind them are cached per
// group. Callers hold the write lock with every group committed
// (ensureCommittedLocked).
func (ml *mergedList) commitLocked() ([]headerInfo, proof.Hash, proof.Hash) {
	if ml.commitOK && ml.commitVer == ml.version {
		return ml.commitHeaders, ml.commitContent, ml.commitRoot
	}
	gids := make([]int, 0, len(ml.groups))
	for gid, g := range ml.groups {
		if len(g.sorted) == 0 {
			continue
		}
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	headers := make([]headerInfo, len(gids))
	entries := make([]proof.HeaderEntry, len(gids))
	for i, gid := range gids {
		g := ml.groups[gid]
		root := ml.groupRootLocked(g).Root
		hh := proof.HeaderHash(gid, len(g.sorted), root)
		headers[i] = headerInfo{gid: gid, g: g, count: len(g.sorted), root: root, hh: hh}
		entries[i] = proof.HeaderEntry{Group: gid, HH: hh}
	}
	ml.commitHeaders = headers
	ml.commitContent = proof.ContentRoot(entries)
	ml.commitRoot = proof.ListRoot(ml.version, ml.commitContent)
	ml.commitVer = ml.version
	ml.commitOK = true
	return headers, ml.commitContent, ml.commitRoot
}

// QueryProved implements Backend: Query plus a window proof, built
// atomically with the window under the list's write lock (the proof
// must commit exactly the version the window was read at). The write
// lock — Query takes the read lock — is for the commitment caches it
// fills, and is the price of the audit path, not of the hot one.
func (m *Memory) QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error) {
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
	ml.mu.Lock()
	defer ml.mu.Unlock()
	ml.ensureCommittedLocked()
	res, cursors := ml.queryCursorsLocked(allowed, offset, count, true)
	res.Version = ml.version
	headers, _, listRoot := ml.commitLocked()
	w := &proof.Window{Version: ml.version, Root: listRoot, Groups: make([]proof.GroupWindow, 0, len(headers))}
	ends := make([]int, 0, len(headers))
	for _, h := range headers {
		if allowed != nil && !allowed[h.gid] {
			// Outside the caller's view: only the opaque header hash
			// travels — no count, no root, no content.
			hh := h.hh
			w.Groups = append(w.Groups, proof.GroupWindow{Group: h.gid, Opaque: &hh})
			continue
		}
		cur := cursors[h.gid]
		root := h.root
		c := h.g.commit
		// The proof's range runs from the bucket holding the window's
		// predecessor to the one holding its successor, and the edge
		// buckets travel whole: the elements of the buckets the window's
		// edges cut that the window does not return.
		lb, lo, hb, hi := 0, 0, len(c.sizes), h.count
		if cur[0] > 0 {
			lb, lo = locate(c.sizes, cur[0]-1)
		}
		if cur[1] < h.count {
			i, start := locate(c.sizes, cur[1])
			hb, hi = i+1, start+int(c.sizes[i]&sizeMask)
		}
		w.Groups = append(w.Groups, proof.GroupWindow{
			Group: h.gid, Count: h.count, Root: &root, Buckets: len(c.sizes), First: lb,
			Start: cur[0], End: cur[1],
			Pred: ml.boundaries(h.g.sorted[lo:cur[0]]),
			Succ: ml.boundaries(h.g.sorted[cur[1]:hi]),
			Path: c.tree.RangeProof(c.buckets(), lb, hb),
		})
		ends = append(ends, hb)
	}
	res.Proof, res.ProofEnds = w, ends
	return res, nil
}

// boundaries returns the records as the edge elements of a window
// proof, nil for none.
func (ml *mergedList) boundaries(recs []rec) []proof.Boundary {
	if len(recs) == 0 {
		return nil
	}
	out := make([]proof.Boundary, len(recs))
	for i, r := range recs {
		out[i] = proof.Boundary{TRS: r.trs, Sealed: ml.payload(r)}
	}
	return out
}

// Commitment implements Backend. Like QueryProved it hashes the list's
// buckets on first touch and reuses them afterwards.
func (m *Memory) Commitment(list zerber.ListID) (Commitment, error) {
	ml := m.list(list, false)
	if ml == nil {
		return Commitment{}, ErrUnknownList
	}
	ml.mu.Lock()
	defer ml.mu.Unlock()
	ml.ensureCommittedLocked()
	_, content, root := ml.commitLocked()
	return Commitment{Version: ml.version, Elements: ml.total, Content: content, Root: root}, nil
}

// QueryProved implements Backend for Durable by delegating to the
// recovered in-memory state, where the commitment is maintained.
// Snapshots persist no hashes: after a restart a list hashes its
// buckets again on its first proved read.
func (d *Durable) QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (QueryResult, error) {
	if d.closed.Load() {
		return QueryResult{}, ErrClosed
	}
	return d.mem.QueryProved(list, allowed, offset, count)
}

// Commitment implements Backend for Durable.
func (d *Durable) Commitment(list zerber.ListID) (Commitment, error) {
	if d.closed.Load() {
		return Commitment{}, ErrClosed
	}
	return d.mem.Commitment(list)
}
