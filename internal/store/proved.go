package store

// Verifiable reads: the audit-on-demand side of the store. A list's
// Merkle commitment (internal/proof) is materialized the first time
// anything proved touches the list — the unproven hot path never
// hashes — and maintained from then on: a mutation at rank p drops the
// buckets and cached nodes from p's bucket on, and the next proved read
// hashes them again from the payloads. Snapshots persist none of it: a
// restarted shard hashes a list's buckets on its first proved read.
// QueryProved serves the same window Query would (same elements, same
// Exhausted, same Version) plus a proof that the window is the exact
// ranked slice of the committed state.

import (
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

// ensureCommittedLocked marks every group of the list audited; the
// buckets are hashed by groupRootLocked. Callers hold the write lock.
func (ml *mergedList) ensureCommittedLocked() {
	for _, g := range ml.groups {
		if g.commit == nil {
			g.commit = &groupCommit{}
		}
	}
}

// groupRootLocked returns the group's cached Merkle root. After a
// mutation it first hashes the buckets the mutation dropped, one
// SHA-256 call per four payloads, and re-covers them with the
// interior-node cache — only the part the mutation truncated is hashed
// — so the root and every window proof until the next mutation are
// look-ups. Callers hold the write lock with the group committed.
func (ml *mergedList) groupRootLocked(g *groupList) proof.Hash {
	c := g.commit
	if !c.rootOK {
		if k, n := len(c.buckets), proof.NumBuckets(len(g.sorted)); k < n {
			buckets := growTo(c.buckets, n)
			if cap(c.buckets) < n {
				copy(buckets, c.buckets)
			}
			var b proof.Bucketer
			for _, r := range g.sorted[k*proof.BucketSize:] {
				if h, ok := b.Add(r.trs, ml.payload(r)); ok {
					buckets[k] = h
					k++
				}
			}
			if h, ok := b.Flush(); ok {
				buckets[k] = h
			}
			c.buckets = buckets
		}
		c.tree.Extend(c.buckets)
		c.root = c.tree.Root(c.buckets)
		c.rootOK = true
	}
	return c.root
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
// content and list roots, reusing per-group root caches and the
// per-version list-level cache. Callers hold the write lock with
// every group committed (ensureCommittedLocked).
func (ml *mergedList) commitLocked() ([]headerInfo, proof.Hash, proof.Hash) {
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
		root := ml.groupRootLocked(g)
		hh := proof.HeaderHash(gid, len(g.sorted), root)
		headers[i] = headerInfo{gid: gid, g: g, count: len(g.sorted), root: root, hh: hh}
		entries[i] = proof.HeaderEntry{Group: gid, HH: hh}
	}
	if !ml.commitOK || ml.commitVer != ml.version {
		ml.commitContent = proof.ContentRoot(entries)
		ml.commitRoot = proof.ListRoot(ml.version, ml.commitContent)
		ml.commitVer = ml.version
		ml.commitOK = true
	}
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
		gw := proof.GroupWindow{Group: h.gid, Count: h.count, Root: &root, Start: cur[0], End: cur[1]}
		// The edge buckets travel whole: the elements of the buckets the
		// window's edges cut that the window does not return.
		lo, hi := proof.EdgeRange(h.count, cur[0], cur[1])
		gw.Pred = ml.boundaries(h.g.sorted[lo:cur[0]])
		gw.Succ = ml.boundaries(h.g.sorted[cur[1]:hi])
		c := h.g.commit
		gw.Path = c.tree.RangeProof(c.buckets, lo/proof.BucketSize, proof.NumBuckets(hi))
		w.Groups = append(w.Groups, gw)
	}
	res.Proof = w
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
