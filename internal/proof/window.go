package proof

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Boundary is one committed element revealed only to complete a bucket
// that a window edge cuts (GroupWindow.Pred and Succ). It carries
// exactly the fields the bucket hash commits to.
type Boundary struct {
	TRS    float64 `json:"trs"`
	Sealed []byte  `json:"sealed"`
}

// GroupWindow is one group's slice of a window proof. For a group in
// the caller's view ("proved") it carries the group's committed size,
// root and the window's position range with its edge buckets and range
// multiproof. For any other group only the opaque header hash and the
// group ID travel — enough to rebuild the content root, nothing about
// the group's size or content. In a continuation (Window.Continued)
// a proved group carries only End, Succ and Path.
type GroupWindow struct {
	Group int `json:"group"`
	// Opaque is the header hash of a group outside the caller's view;
	// nil marks a proved group. Exactly one of Opaque and Root is set.
	Opaque *Hash `json:"opaque,omitempty"`

	// Proved-group fields.
	Count int   `json:"count,omitempty"`
	Root  *Hash `json:"root,omitempty"`
	// Buckets is how many buckets the group's run holds — its tree's
	// leaves, which fix the tree's shape — and First the first bucket of
	// the proof's range: the one Pred starts, else the one the window
	// starts. Where the range ends the verifier counts itself, cutting
	// the range's elements by the boundary rule.
	Buckets int `json:"buckets,omitempty"`
	First   int `json:"first,omitempty"`
	// Start and End delimit the window's committed positions in this
	// group's run: the window holds exactly the run's [Start, End)
	// slice, the run's first Start elements are the group's share of
	// the skipped offset prefix, and positions End.. are withheld as
	// ranking below the window.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Pred and Succ are the elements of the edge buckets that the window
	// does not return: Pred runs from the start of the bucket holding
	// position Start-1 up to Start, Succ from End to the end of the
	// bucket holding End — one to MaxBucket elements each, none at the
	// run's ends. Pred's last element is the window's predecessor and
	// Succ's first its successor; the others travel so that the verifier
	// can rebuild the buckets those two share, whose boundaries it draws
	// itself by the boundary rule.
	Pred []Boundary `json:"pred,omitempty"`
	Succ []Boundary `json:"succ,omitempty"`
	Path []Node     `json:"path,omitempty"`
}

// Window is the verifiable proof attached to one ranked query
// response: the list root for the version the window was served at,
// plus one GroupWindow per non-empty committed group.
type Window struct {
	Version uint64        `json:"version"`
	Root    Hash          `json:"root"`
	Groups  []GroupWindow `json:"groups,omitempty"`
	// Continued marks a continuation (Continue): the window starts where
	// a window of the same list at the same version ended, and the
	// client verified that one. Only the proved groups travel, each with
	// End, Succ and the right-path nodes that window's proof did not
	// carry.
	Continued bool `json:"continued,omitempty"`
}

// WindowElement is one posting element as a window carries it: the
// fields the commitment binds plus the server-assigned group. It is the
// store's element type (store.Element), so a response verifies in
// place.
type WindowElement struct {
	// Sealed is the encrypted (doc, term, score) payload.
	Sealed []byte `json:"sealed"`
	// TRS is the transformed relevance score the server ranks by.
	TRS float64 `json:"trs"`
	// Group is the collaboration group owning the element.
	Group int `json:"group"`
}

// Frontier is what verifying a window leaves for verifying the next
// window of the same list, the one starting where it ended: the version
// and root it was verified at, where it ended, its last element, and
// per proved group the committed count, root and bucket count, the
// window's end in the group's run, the bucket that end falls in, the
// subtrees covering the buckets before it, the right path of the
// window's proof and the elements of that bucket before the end. A
// continuation omits all of it.
type Frontier struct {
	// Version is the list version the window was verified at: what the
	// next sub-query names to ask for a continuation
	// (server.ListQuery.ProofFrom).
	Version uint64
	root    Hash
	offset  int
	last    WindowElement
	groups  []frontierGroup
	// nodes holds each group's frontier and then its right path, from
	// the group's off.
	nodes []Node
	// open holds last's payload, then each group's open bucket — the
	// bucket input of the run's elements from the last bucket boundary
	// at or before the window's end up to that end, openN of them — from
	// the group's openOff.
	open []byte
}

type frontierGroup struct {
	group, count, end       int
	buckets, bucket         int
	root                    Hash
	off, left, right        int
	openOff, openLen, openN int
}

// ErrInvalid is the root cause every failed verification wraps:
// errors.Is(err, ErrInvalid) identifies a proof rejection regardless
// of which check fired.
var ErrInvalid = errors.New("proof: verification failed")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// cmpRank orders by the server-visible rank relation: descending TRS,
// then ascending sealed bytes. Zero means equal — possible only for
// byte-identical ciphertexts, whose mutual order is unobservable.
func cmpRank(atrs float64, asealed []byte, btrs float64, bsealed []byte) int {
	if atrs != btrs {
		if atrs > btrs {
			return -1
		}
		return 1
	}
	return bytes.Compare(asealed, bsealed)
}

// Continue derives from a full window proof the continuation for a
// client that verified the window of the same list, at the same
// version, ending where this one starts: per proved group End, Succ
// and the right-path nodes that window's proof did not carry. The rest
// the client holds or does without: the group's count, root and bucket
// count, its Start (the earlier window's End), the subtrees covering
// the buckets before the one Start falls in and that bucket's elements
// before Start, the predecessor (the earlier window's last element
// stands in for every group's) and the opaque headers (they bind only
// the list root, which the client already checked). The earlier
// window's proof ended with the bucket Start falls in — the one after
// a Pred the boundary rule ends, else Pred's — and a range's right path
// depends only on where it ends: the bucket after its last, which ends
// holds per proved group of w, in order, as the prover cut them
// (store.QueryResult.ProofEnds). With ends nil, Continue cuts elems,
// the window's elements, into buckets by the boundary rule to find
// them, as the verifier does — which reads every payload. Paths alias
// w's.
func Continue(w *Window, elems []WindowElement, ends []int) *Window {
	if ends == nil {
		ends = rangeEnds(w, elems)
	}
	c := &Window{Version: w.Version, Root: w.Root, Groups: make([]GroupWindow, 0, len(w.Groups)), Continued: true}
	for _, gw := range w.Groups {
		if gw.Opaque != nil {
			continue
		}
		startBucket, hb := gw.First, ends[len(c.Groups)]
		if n := len(gw.Pred); n > 0 && EndsBucket(n, gw.Pred[n-1].Sealed) {
			startBucket++
		}
		nb := gw.Buckets
		right := countRight(0, nb, hb, hb)
		shared := countRight(0, nb, min(startBucket+1, nb), hb)
		path := gw.Path[len(gw.Path)-right : len(gw.Path)-shared]
		c.Groups = append(c.Groups, GroupWindow{Group: gw.Group, End: gw.End, Succ: gw.Succ, Path: path})
	}
	return c
}

// rangeEnds returns, per proved group of w in order, the bucket after
// the last one its range covers, cutting Pred, the group's elements of
// elems and Succ into buckets as verify does.
func rangeEnds(w *Window, elems []WindowElement) []int {
	// Per group, the buckets of the range closed so far and the
	// elements of the open one.
	type cut struct{ k, open int }
	cuts := make([]cut, len(w.Groups))
	for i, gw := range w.Groups {
		cuts[i].open = len(gw.Pred)
		if n := len(gw.Pred); n > 0 && EndsBucket(n, gw.Pred[n-1].Sealed) {
			cuts[i] = cut{k: 1}
		}
	}
	for _, el := range elems {
		g := groupAt(w.Groups, el.Group)
		if g < 0 {
			continue
		}
		if ct := &cuts[g]; EndsBucket(ct.open+1, el.Sealed) {
			ct.k, ct.open = ct.k+1, 0
		} else {
			ct.open++
		}
	}
	var ends []int
	for i, gw := range w.Groups {
		if gw.Opaque != nil {
			continue
		}
		hb := gw.First + cuts[i].k
		if cuts[i].open > 0 || len(gw.Succ) > 0 {
			hb++ // the bucket Succ completes
		}
		ends = append(ends, hb)
	}
	return ends
}

// VerifyWindow checks a window proof against the query that produced
// it: the caller's allowed groups, the requested (offset, count)
// range, and the response's elements, exhausted flag and version. On
// success the response window is provably the exact ranked
// [offset, offset+count) slice of the state committed under w.Root —
// inclusion (every element sits at its claimed committed position)
// and adjacency (the skipped prefix is exactly offset elements and
// every withheld element ranks at or below the window's last), up to
// reordering of byte-identical ciphertexts. What the root itself is
// bound to is the caller's problem: pin it across rounds, cross-check
// it between replicas, or audit it wholesale. A continuation needs the
// window before it and is refused here (VerifyNext).
func VerifyWindow(w *Window, allowed map[int]bool, offset, count int, elems []WindowElement, exhausted bool, version uint64) error {
	_, err := verify(nil, false, w, allowed, offset, count, elems, exhausted, version)
	return err
}

// VerifyNext is VerifyWindow for a scan that reads one list in
// adjacent windows. prev is the Frontier the scan's previous window
// left, nil before the first. w is a full proof, accepted whatever
// prev is, or a continuation of prev, which proves the same as a full
// proof would against what prev holds: same version and root, offset
// where prev ended, no element ranking above prev's last, and every
// group root rebuilt from prev's frontier, the window and the path.
// It returns the Frontier for the next window, or nil when this one is
// empty or exhausted and none follows it.
func VerifyNext(prev *Frontier, w *Window, allowed map[int]bool, offset, count int, elems []WindowElement, exhausted bool, version uint64) (*Frontier, error) {
	return verify(prev, true, w, allowed, offset, count, elems, exhausted, version)
}

// groupState is one group of a proof as verify walks it. Its claims
// come all from a full proof, or for a continuation (cont) the count,
// root, bucket count and start from the Frontier of the window before
// it, together with the bucket start falls in (lb), the subtrees
// covering the buckets before it (left), that window's right path
// (right) and the bucket input of that bucket's preN elements before
// start (pre). The rest is where its buckets go in the leaf buffer and
// the bucket its window elements are filling.
type groupState struct {
	group, count, start, end int
	root                     Hash
	pred, succ               []Boundary
	path, left, right        []Node
	pre                      []byte
	preN                     int
	cont, opaque             bool
	// nb is the run's bucket count and [lb, hb) the buckets its range
	// covers, whose nodes go to leaves[off:], k of them so far; kEnd
	// and openN are k and inOpen once the window's elements are in.
	nb, lb, hb, off, k, kEnd, openN int
	// n counts the group's window elements.
	n int
	// The open bucket: inOpen elements, its prefix first when prefix is
	// set (the elements before Start, from Pred or the Frontier), then
	// the window elements win[:nwin]. The boundary rule closes a bucket
	// at MaxBucket elements, so win never overflows.
	inOpen, nwin int
	prefix       bool
	win          [MaxBucket]int32
}

// stackGroups is how many groups a proof may hold before verify keeps
// their state on the heap.
const stackGroups = 16

func verify(prev *Frontier, record bool, w *Window, allowed map[int]bool, offset, count int, elems []WindowElement, exhausted bool, version uint64) (*Frontier, error) {
	if w == nil {
		return nil, invalidf("no proof attached")
	}
	if w.Version != version {
		return nil, invalidf("proof version %d, response version %d", w.Version, version)
	}
	if w.Continued {
		switch {
		case prev == nil:
			return nil, invalidf("continuation with no verified window before it")
		case w.Version != prev.Version:
			return nil, invalidf("continuation at version %d, the window before it verified at %d", w.Version, prev.Version)
		case w.Root != prev.root:
			return nil, invalidf("continuation root differs from the window before it")
		case offset != prev.offset:
			return nil, invalidf("continuation at offset %d, the window before it ended at %d", offset, prev.offset)
		case len(w.Groups) != len(prev.groups):
			return nil, invalidf("continuation carries %d groups, the window before it %d", len(w.Groups), len(prev.groups))
		}
	}
	if len(elems) > count {
		return nil, invalidf("window holds %d elements, requested %d", len(elems), count)
	}
	for i := range w.Groups {
		if i > 0 && w.Groups[i].Group <= w.Groups[i-1].Group {
			return nil, invalidf("group headers not strictly ascending at %d", w.Groups[i].Group)
		}
		if w.Continued && w.Groups[i].Group != prev.groups[i].group {
			return nil, invalidf("continuation group %d has no verified state", w.Groups[i].Group)
		}
	}
	// One state per group, at the group's position in w.Groups.
	var stack [stackGroups]groupState
	gs := stack[:]
	if len(w.Groups) > len(stack) {
		gs = make([]groupState, len(w.Groups))
	}
	gs = gs[:len(w.Groups)]
	for i := range gs {
		gs[i].opaque = w.Groups[i].Opaque != nil
	}
	// The merged window must be rank-sorted and stay inside the
	// caller's view — a proved group of the proof; each group's share
	// of it is counted for its range proof.
	for i, el := range elems {
		if i > 0 && cmpRank(elems[i-1].TRS, elems[i-1].Sealed, el.TRS, el.Sealed) > 0 {
			return nil, invalidf("window not rank-sorted at element %d", i)
		}
		g := groupAt(w.Groups, el.Group)
		switch {
		case g < 0:
			return nil, invalidf("window elements of group %d carry no proof", el.Group)
		case gs[g].opaque:
			return nil, invalidf("element %d claims group %d outside the caller's view", i, el.Group)
		}
		gs[g].n++
	}
	// A continuation's skipped prefix is the window before it and what
	// that one skipped, all ranking at or above its last element.
	if w.Continued && len(elems) > 0 && cmpRank(prev.last.TRS, prev.last.Sealed, elems[0].TRS, elems[0].Sealed) > 0 {
		return nil, invalidf("window ranks above the end of the window before it")
	}
	var entries []HeaderEntry
	if !w.Continued {
		entries = make([]HeaderEntry, 0, len(w.Groups))
	}
	sumStart := 0
	allConsumed := true
	nLeaves := 0
	for i := range w.Groups {
		gw, st := &w.Groups[i], &gs[i]
		st.group, st.end, st.succ, st.path = gw.Group, gw.End, gw.Succ, gw.Path
		if w.Continued {
			pg := &prev.groups[i]
			if gw.Opaque != nil || gw.Root != nil || gw.Count != 0 || gw.Buckets != 0 || gw.First != 0 || gw.Start != 0 || len(gw.Pred) != 0 {
				return nil, invalidf("continuation group %d carries full-proof fields", gw.Group)
			}
			st.count, st.root, st.start, st.cont = pg.count, pg.root, pg.end, true
			st.nb, st.lb = pg.buckets, pg.bucket
			st.left = prev.nodes[pg.off : pg.off+pg.left]
			st.right = prev.nodes[pg.off+pg.left : pg.off+pg.left+pg.right]
			st.pre, st.preN = prev.open[pg.openOff:pg.openOff+pg.openLen], pg.openN
		} else {
			if gw.Opaque != nil {
				// A group outside the view must stay fully opaque — and must
				// not be one of the caller's own groups in disguise.
				if allowed == nil || allowed[gw.Group] {
					return nil, invalidf("group %d of the caller's view carried opaque", gw.Group)
				}
				if gw.Root != nil || gw.Count != 0 || gw.Buckets != 0 || gw.First != 0 || gw.Start != 0 || gw.End != 0 ||
					len(gw.Pred) != 0 || len(gw.Succ) != 0 || len(gw.Path) != 0 {
					return nil, invalidf("opaque group %d carries window fields", gw.Group)
				}
				entries = append(entries, HeaderEntry{Group: gw.Group, HH: *gw.Opaque})
				continue
			}
			if allowed != nil && !allowed[gw.Group] {
				return nil, invalidf("proved group %d outside the caller's view", gw.Group)
			}
			if gw.Root == nil {
				return nil, invalidf("group %d missing its root", gw.Group)
			}
			st.count, st.root, st.start, st.pred = gw.Count, *gw.Root, gw.Start, gw.Pred
			st.nb, st.lb = gw.Buckets, gw.First
			entries = append(entries, HeaderEntry{Group: gw.Group, HH: HeaderHash(gw.Group, gw.Count, *gw.Root)})
		}
		if err := st.check(elems); err != nil {
			return nil, err
		}
		st.off = nLeaves
		nLeaves += st.maxLeaves()
		if len(st.succ) > 0 {
			allConsumed = false
		}
		sumStart += st.start
	}
	// Completeness arithmetic. Non-empty window: the skipped prefix is
	// exactly offset elements. Empty window: every proved group sits
	// fully inside the prefix (Start = End = Count, enforced by the
	// group checks and the exhausted check below), which must not
	// exceed the requested offset.
	if len(elems) > 0 {
		if sumStart != offset {
			return nil, invalidf("skipped prefix holds %d elements, offset is %d", sumStart, offset)
		}
	} else if sumStart > offset {
		return nil, invalidf("empty window but %d elements claimed before offset %d", sumStart, offset)
	}
	// A short window is only legitimate when every group ran dry, and
	// the response's exhausted flag must say exactly that.
	if len(elems) < count && !allConsumed {
		return nil, invalidf("window short of count with elements withheld")
	}
	if exhausted != allConsumed {
		return nil, invalidf("exhausted flag %v, proofs say %v", exhausted, allConsumed)
	}

	// Every bucket is hashed once, in one call, into its group's
	// stretch of one leaf buffer — sized by the checks above, which
	// bound it by the elements that arrived. A group's elements arrive
	// interleaved with the others', so each group keeps the indices of
	// the ones its open bucket holds, and its bucket is hashed when the
	// element the boundary rule ends it at arrives.
	leaves := make([]Node, nLeaves)
	// buf is a bucket's hash input. Passed by value, it stays on the
	// stack unless a bucket outgrows it: MaxBucket elements of up to 118
	// payload bytes fit.
	var scratch [1024]byte
	buf := scratch[:0]
	for i := range gs {
		if st := &gs[i]; !st.opaque {
			var err error
			if buf, err = st.begin(buf, leaves); err != nil {
				return nil, err
			}
		}
	}
	for i := range elems {
		st := &gs[groupAt(w.Groups, elems[i].Group)]
		st.win[st.nwin] = int32(i)
		st.nwin++
		if st.inOpen++; EndsBucket(st.inOpen, elems[i].Sealed) {
			buf = st.close(buf, elems, leaves, nil)
		}
	}
	var next *Frontier
	if record && len(elems) > 0 && !exhausted {
		next = newFrontier(gs, w, offset+len(elems), elems)
	}
	for i := range gs {
		st := &gs[i]
		if st.opaque {
			continue
		}
		if err := st.verify(buf, elems, leaves, next); err != nil {
			return nil, err
		}
	}
	// Everything above bound the per-group claims; now bind the claims
	// to the advertised root. A continuation's group roots are the ones
	// the window before it bound to this root already.
	if !w.Continued {
		if got := ListRoot(w.Version, ContentRoot(entries)); got != w.Root {
			return nil, invalidf("headers do not rebuild the advertised root")
		}
	}
	return next, nil
}

// groupAt returns the position of group in the ascending groups, -1
// when it has none.
func groupAt(groups []GroupWindow, group int) int {
	lo, hi := 0, len(groups)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if groups[m].Group < group {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(groups) && groups[lo].Group == group {
		return lo
	}
	return -1
}

// check holds the group's claimed range, bucket range and edges to the
// window. Where the edges' buckets end is the boundary rule's to say,
// and is checked as they are hashed.
func (st *groupState) check(elems []WindowElement) error {
	if st.count <= 0 || st.start < 0 || st.start > st.end || st.end > st.count {
		return invalidf("group %d range [%d,%d) of %d malformed", st.group, st.start, st.end, st.count)
	}
	if st.n != st.end-st.start {
		return invalidf("group %d window segment holds %d elements, range claims %d", st.group, st.n, st.end-st.start)
	}
	// A continuation of a window that consumed the group starts past
	// its last bucket, an empty range at the tree's end.
	if st.nb < 1 || st.nb > st.count || st.lb < 0 || st.lb > st.nb || st.lb == st.nb && !st.cont {
		return invalidf("group %d bucket range from %d of %d malformed", st.group, st.lb, st.nb)
	}
	// The window before a continuation left the elements of the bucket
	// Start falls in that precede Start; no predecessor travels.
	if !st.cont && ((len(st.pred) > 0) != (st.start > 0) || len(st.pred) > st.start) {
		return invalidf("group %d predecessor edge carries %d elements at start %d", st.group, len(st.pred), st.start)
	}
	if (len(st.succ) > 0) != (st.end < st.count) || st.end+len(st.succ) > st.count {
		return invalidf("group %d successor edge carries %d elements at end %d of %d", st.group, len(st.succ), st.end, st.count)
	}
	// Boundary ordering against the whole merged window: the last
	// skipped element must rank at or above the window's first, the
	// first withheld element at or below the window's last. With the
	// window sorted and each group's committed run sorted, this pins
	// every skipped and withheld element outside the window.
	if len(elems) > 0 {
		if p := len(st.pred) - 1; p >= 0 && cmpRank(st.pred[p].TRS, st.pred[p].Sealed, elems[0].TRS, elems[0].Sealed) > 0 {
			return invalidf("group %d skipped element ranks inside the window", st.group)
		}
		last := elems[len(elems)-1]
		if len(st.succ) > 0 && cmpRank(last.TRS, last.Sealed, st.succ[0].TRS, st.succ[0].Sealed) > 0 {
			return invalidf("group %d withheld element ranks inside the window", st.group)
		}
	}
	return nil
}

// maxLeaves bounds the buckets the group's range covers: every bucket
// but the run's last holds at least MinBucket elements.
func (st *groupState) maxLeaves() int {
	n := st.n + len(st.succ) + len(st.pred) + st.preN
	return n/MinBucket + 1
}

// begin opens the group's first bucket before its window elements
// arrive. A Pred the boundary rule ends is a whole bucket, hashed at
// once; a shorter one, or the Frontier's elements before Start, opens
// the bucket the window goes on filling. A Pred the rule ends before
// its last element is refused: it reaches into the bucket before.
func (st *groupState) begin(buf []byte, leaves []Node) ([]byte, error) {
	if st.cont {
		st.inOpen, st.prefix = st.preN, st.preN > 0
		return buf, nil
	}
	for i, p := range st.pred {
		if !EndsBucket(i+1, p.Sealed) {
			continue
		}
		if i != len(st.pred)-1 {
			return buf, invalidf("group %d predecessor edge crosses a bucket boundary", st.group)
		}
		buf = append(buf[:0], domainLeaf)
		for _, p := range st.pred {
			buf = appendElement(buf, p.TRS, p.Sealed)
		}
		leaves[st.off] = Node{Count: len(st.pred), Root: sha256.Sum256(buf)}
		st.k = 1
		return buf, nil
	}
	st.inOpen, st.prefix = len(st.pred), len(st.pred) > 0
	return buf, nil
}

// close hashes the open bucket, completed by extra, into the group's
// next leaf, with buf as the hash input's buffer.
func (st *groupState) close(buf []byte, elems []WindowElement, leaves []Node, extra []Boundary) []byte {
	buf = st.appendOpen(append(buf[:0], domainLeaf), elems)
	for _, e := range extra {
		buf = appendElement(buf, e.TRS, e.Sealed)
	}
	leaves[st.off+st.k] = Node{Count: st.inOpen + len(extra), Root: sha256.Sum256(buf)}
	st.k++
	st.inOpen, st.nwin, st.prefix = 0, 0, false
	return buf
}

// appendOpen appends the open bucket's elements to a bucket's hash
// input.
func (st *groupState) appendOpen(buf []byte, elems []WindowElement) []byte {
	if st.prefix {
		if st.cont {
			buf = append(buf, st.pre...)
		} else {
			for _, p := range st.pred {
				buf = appendElement(buf, p.TRS, p.Sealed)
			}
		}
	}
	for _, i := range st.win[:st.nwin] {
		buf = appendElement(buf, elems[i].TRS, elems[i].Sealed)
	}
	return buf
}

// openSize is the length of the open bucket's input.
func (st *groupState) openSize(elems []WindowElement) int {
	n := 0
	if st.prefix {
		if st.cont {
			n += len(st.pre)
		} else {
			for _, p := range st.pred {
				n += elementSize(p.Sealed)
			}
		}
	}
	for _, i := range st.win[:st.nwin] {
		n += elementSize(elems[i].Sealed)
	}
	return n
}

// elementSize is the length of one element's share of a bucket input.
func elementSize(sealed []byte) int {
	var v [binary.MaxVarintLen64]byte
	return 8 + binary.PutUvarint(v[:], uint64(len(sealed))) + len(sealed)
}

// verify completes the group's last bucket with its successors and
// rebuilds the group root from its buckets and path. Succ must end
// where the boundary rule ends the bucket End falls in, or where the
// run does. With next set it records the group's frontier, right path
// and open bucket there.
func (st *groupState) verify(buf []byte, elems []WindowElement, leaves []Node, next *Frontier) error {
	st.kEnd, st.openN = st.k, st.inOpen
	openOff := 0
	if next != nil {
		openOff = len(next.open)
		next.open = st.appendOpen(next.open, elems)
	}
	n := st.inOpen
	for i, s := range st.succ {
		n++
		ends, last := EndsBucket(n, s.Sealed), i == len(st.succ)-1
		if ends && !last || last && !ends && st.end+len(st.succ) < st.count {
			return invalidf("group %d successor edge does not end where its bucket does", st.group)
		}
	}
	if st.inOpen > 0 || len(st.succ) > 0 {
		st.close(buf, elems, leaves, st.succ)
	}
	st.hb = st.lb + st.k
	if st.hb > st.nb {
		return invalidf("group %d range reaches bucket %d of %d", st.group, st.hb, st.nb)
	}
	v := rangeVerifier{leaves: leaves[st.off : st.off+st.k], path: st.path, lo: st.lb, hi: st.hb}
	lo := st.start - len(st.pred)
	if st.cont {
		// The window before this one proved a range ending with the
		// bucket start falls in; the tail of its right path is this
		// range's too.
		v.left = st.left
		v.tail = st.right[len(st.right)-countRight(0, st.nb, min(st.lb+1, st.nb), st.hb):]
		lo = st.start - st.preN
	}
	off := 0
	if next != nil {
		off = len(next.nodes)
		v.record, v.end, v.out = true, st.lb+st.kEnd, next.nodes
	}
	root, ok := v.root(st.nb)
	if !ok || root.Root != st.root || root.Count != st.count {
		return invalidf("group %d range proof does not bind to its root", st.group)
	}
	if v.before != lo {
		return invalidf("group %d range proof places its range at %d, its edges at %d", st.group, v.before, lo)
	}
	if next != nil {
		next.nodes = v.out
		next.groups = append(next.groups, frontierGroup{
			group: st.group, count: st.count, end: st.end, root: st.root,
			buckets: st.nb, bucket: st.lb + st.kEnd,
			off: off, left: v.nLeft, right: len(v.out) - off - v.nLeft,
			openOff: openOff, openLen: len(next.open) - openOff, openN: st.openN,
		})
	}
	return nil
}

// newFrontier allocates the Frontier a window ending at offset leaves,
// with room for every group's frontier and right path — together at
// most arity-1 subtrees per level of the group's tree — and for the
// last element's payload followed by every group's open bucket.
func newFrontier(gs []groupState, w *Window, offset int, elems []WindowElement) *Frontier {
	last := elems[len(elems)-1]
	nodes, open := 0, len(last.Sealed)
	for i := range gs {
		if st := &gs[i]; !st.opaque {
			nodes += (arity-1)*depth(st.nb) + 1
			open += st.openSize(elems)
		}
	}
	buf := append(make([]byte, 0, open), last.Sealed...)
	last.Sealed = buf
	return &Frontier{
		Version: w.Version,
		root:    w.Root,
		offset:  offset,
		last:    last,
		groups:  make([]frontierGroup, 0, len(gs)),
		nodes:   make([]Node, 0, nodes),
		open:    buf,
	}
}
