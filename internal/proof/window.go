package proof

import (
	"bytes"
	"errors"
	"fmt"
)

// Boundary is one committed element revealed only to pin a window
// edge: the last element of a group's skipped prefix (Pred) or the
// first element of its withheld suffix (Succ). It carries exactly the
// fields the leaf hash commits to.
type Boundary struct {
	TRS    float64 `json:"trs"`
	Sealed []byte  `json:"sealed"`
}

// GroupWindow is one group's slice of a window proof. For a group in
// the caller's view ("proved") it carries the group's committed size,
// root and the window's position range with its boundaries and range
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
	// Start and End delimit the window's committed positions in this
	// group's run: the window holds exactly the run's [Start, End)
	// slice, the run's first Start elements are the group's share of
	// the skipped offset prefix, and positions End.. are withheld as
	// ranking below the window.
	Start int       `json:"start,omitempty"`
	End   int       `json:"end,omitempty"`
	Pred  *Boundary `json:"pred,omitempty"`
	Succ  *Boundary `json:"succ,omitempty"`
	Path  []Hash    `json:"path,omitempty"`
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
	// End, Succ and the right-path hashes that window's proof did not
	// carry.
	Continued bool `json:"continued,omitempty"`
}

// WindowElement is the verifier's view of one returned element — the
// fields the commitment binds plus the server-assigned group.
type WindowElement struct {
	TRS    float64
	Sealed []byte
	Group  int
}

// Frontier is what verifying a window leaves for verifying the next
// window of the same list, the one starting where it ended: the version
// and root it was verified at, where it ended, its last element, and
// per proved group the committed count and root, the window's end in
// the group's run, the subtree roots covering the run before that end
// and the right path of the window's proof. A continuation omits all
// of it.
type Frontier struct {
	// Version is the list version the window was verified at: what the
	// next sub-query names to ask for a continuation
	// (server.ListQuery.ProofFrom).
	Version uint64
	root    Hash
	offset  int
	last    WindowElement
	groups  []frontierGroup
	// hashes holds each group's frontier and then its right path, from
	// the group's off.
	hashes []Hash
}

type frontierGroup struct {
	group, count, end int
	root              Hash
	off, left, right  int
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
// and the right-path hashes that window's proof did not carry. The
// rest the client holds or does without: the group's count and root,
// its Start (the earlier window's End), the subtree roots covering the
// run before Start, the predecessor (the earlier window's last element
// stands in for every group's) and the opaque headers (they bind only
// the list root, which the client already checked). The earlier
// window's right path is that of a range ending at min(Start+1, Count),
// since a range's right path depends only on its upper end. Paths alias
// w's.
func Continue(w *Window) *Window {
	c := &Window{Version: w.Version, Root: w.Root, Groups: make([]GroupWindow, 0, len(w.Groups)), Continued: true}
	for _, gw := range w.Groups {
		if gw.Opaque != nil {
			continue
		}
		hi := gw.End
		if gw.Succ != nil {
			hi++
		}
		right := countRight(0, gw.Count, hi, hi)
		shared := countRight(0, gw.Count, min(gw.Start+1, gw.Count), hi)
		path := gw.Path[len(gw.Path)-right : len(gw.Path)-shared]
		c.Groups = append(c.Groups, GroupWindow{Group: gw.Group, End: gw.End, Succ: gw.Succ, Path: path})
	}
	return c
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
	// The merged window must be rank-sorted and stay inside the
	// caller's view; each group's share of it is counted for its range
	// proof.
	counts := make(map[int]int)
	for i, el := range elems {
		if allowed != nil && !allowed[el.Group] {
			return nil, invalidf("element %d claims group %d outside the caller's view", i, el.Group)
		}
		if i > 0 && cmpRank(elems[i-1].TRS, elems[i-1].Sealed, el.TRS, el.Sealed) > 0 {
			return nil, invalidf("window not rank-sorted at element %d", i)
		}
		counts[el.Group]++
	}
	// A continuation's skipped prefix is the window before it and what
	// that one skipped, all ranking at or above its last element.
	if w.Continued && len(elems) > 0 && cmpRank(prev.last.TRS, prev.last.Sealed, elems[0].TRS, elems[0].Sealed) > 0 {
		return nil, invalidf("window ranks above the end of the window before it")
	}
	// Every element is hashed once, straight into its group's stretch of
	// one leaf buffer — sized by the elements that arrived, not by what
	// the proof claims. A stretch starts with a slot for the group's Pred
	// boundary and has room for Succ after its last element.
	buf := make([]Hash, len(elems)+2*len(counts))
	segs := make(map[int][]Hash, len(counts))
	off := 0
	for g, n := range counts {
		segs[g] = buf[off : off+1 : off+n+2]
		off += n + 2
	}
	for _, el := range elems {
		segs[el.Group] = append(segs[el.Group], LeafHash(el.TRS, el.Sealed))
	}
	var next *Frontier
	if record && len(elems) > 0 && !exhausted {
		next = newFrontier(prev, w, offset+len(elems), elems[len(elems)-1])
	}
	var entries []HeaderEntry
	if !w.Continued {
		entries = make([]HeaderEntry, 0, len(w.Groups))
	}
	prevGroup := 0
	sumStart := 0
	allConsumed := true
	for i := range w.Groups {
		gw := &w.Groups[i]
		if i > 0 && gw.Group <= prevGroup {
			return nil, invalidf("group headers not strictly ascending at %d", gw.Group)
		}
		prevGroup = gw.Group
		g := groupClaim{group: gw.Group, end: gw.End, succ: gw.Succ, path: gw.Path}
		if w.Continued {
			pg := &prev.groups[i]
			if gw.Group != pg.group {
				return nil, invalidf("continuation group %d has no verified state", gw.Group)
			}
			if gw.Opaque != nil || gw.Root != nil || gw.Count != 0 || gw.Start != 0 || gw.Pred != nil {
				return nil, invalidf("continuation group %d carries full-proof fields", gw.Group)
			}
			g.count, g.root, g.start, g.cont = pg.count, pg.root, pg.end, true
			g.left = prev.hashes[pg.off : pg.off+pg.left]
			g.right = prev.hashes[pg.off+pg.left : pg.off+pg.left+pg.right]
		} else {
			if gw.Opaque != nil {
				// A group outside the view must stay fully opaque — and must
				// not be one of the caller's own groups in disguise.
				if allowed == nil || allowed[gw.Group] {
					return nil, invalidf("group %d of the caller's view carried opaque", gw.Group)
				}
				if gw.Root != nil || gw.Count != 0 || gw.Start != 0 || gw.End != 0 ||
					gw.Pred != nil || gw.Succ != nil || len(gw.Path) != 0 {
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
			g.count, g.root, g.start, g.pred = gw.Count, *gw.Root, gw.Start, gw.Pred
		}
		seg, inWindow := segs[g.group]
		delete(segs, g.group)
		if !inWindow {
			seg = make([]Hash, 1, 2)
		}
		if err := g.verify(seg, elems, next); err != nil {
			return nil, err
		}
		if !w.Continued {
			entries = append(entries, HeaderEntry{Group: g.group, HH: HeaderHash(g.group, g.count, g.root)})
		}
		if g.succ != nil {
			allConsumed = false
		}
		sumStart += g.start
	}
	if len(segs) != 0 {
		return nil, invalidf("window elements of %d group(s) carry no proof", len(segs))
	}
	// Completeness arithmetic. Non-empty window: the skipped prefix is
	// exactly offset elements. Empty window: every proved group sits
	// fully inside the prefix (Start = End = Count, enforced above via
	// empty segments and the exhausted check below), which must not
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

// newFrontier allocates the Frontier a window ending at offset leaves,
// with room for every group's frontier and right path: together at
// most arity-1 subtree roots per level of the group's tree.
func newFrontier(prev *Frontier, w *Window, offset int, last WindowElement) *Frontier {
	n := 0
	for i := range w.Groups {
		count := w.Groups[i].Count
		if w.Continued {
			count = prev.groups[i].count
		}
		n += (arity-1)*depth(count) + 1
	}
	last.Sealed = bytes.Clone(last.Sealed)
	return &Frontier{
		Version: w.Version,
		root:    w.Root,
		offset:  offset,
		last:    last,
		groups:  make([]frontierGroup, 0, len(w.Groups)),
		hashes:  make([]Hash, 0, n),
	}
}

// groupClaim is one proved group's claims as the verifier holds them:
// all from a full proof, or for a continuation (cont) the count, root
// and start from the Frontier of the window before it, together with
// the subtree roots covering the run before start (left) and that
// window's right path (right).
type groupClaim struct {
	group, count, start, end int
	root                     Hash
	pred, succ               *Boundary
	path, left, right        []Hash
	cont                     bool
}

// verify checks the group's range and boundaries against the window
// (seg holds the leaves of the group's elements after a slot for the
// predecessor) and rebuilds the group root. With next set it records
// the group's frontier and right path there.
func (g *groupClaim) verify(seg []Hash, elems []WindowElement, next *Frontier) error {
	if g.count <= 0 || g.start < 0 || g.start > g.end || g.end > g.count {
		return invalidf("group %d range [%d,%d) of %d malformed", g.group, g.start, g.end, g.count)
	}
	if !g.cont && (g.pred != nil) != (g.start > 0) {
		return invalidf("group %d prefix boundary presence inconsistent", g.group)
	}
	if (g.succ != nil) != (g.end < g.count) {
		return invalidf("group %d suffix boundary presence inconsistent", g.group)
	}
	if n := len(seg) - 1; n != g.end-g.start {
		return invalidf("group %d window segment holds %d elements, range claims %d", g.group, n, g.end-g.start)
	}
	// Boundary ordering against the whole merged window: the last
	// skipped element must rank at or above the window's first, the
	// first withheld element at or below the window's last. With the
	// window sorted and each group's committed run sorted, this pins
	// every skipped and withheld element outside the window.
	if len(elems) > 0 {
		if g.pred != nil && cmpRank(g.pred.TRS, g.pred.Sealed, elems[0].TRS, elems[0].Sealed) > 0 {
			return invalidf("group %d skipped element ranks inside the window", g.group)
		}
		last := elems[len(elems)-1]
		if g.succ != nil && cmpRank(last.TRS, last.Sealed, g.succ.TRS, g.succ.Sealed) > 0 {
			return invalidf("group %d withheld element ranks inside the window", g.group)
		}
	}
	// Rebuild the proved leaf range: boundaries included, so their
	// values are committed too, not just asserted.
	lo, hi := g.start, g.end
	leaves := seg[1:]
	if g.pred != nil {
		seg[0] = LeafHash(g.pred.TRS, g.pred.Sealed)
		leaves = seg
		lo--
	}
	if g.succ != nil {
		leaves = append(leaves, LeafHash(g.succ.TRS, g.succ.Sealed))
		hi++
	}
	v := rangeVerifier{leaves: leaves, path: g.path, lo: lo, hi: hi}
	if g.cont {
		// The window before this one proved a range ending at
		// min(start+1, count); the tail of its right path is this
		// range's too.
		v.left = g.left
		v.tail = g.right[len(g.right)-countRight(0, g.count, min(g.start+1, g.count), hi):]
	}
	off := 0
	if next != nil {
		off = len(next.hashes)
		v.record, v.end, v.out = true, g.end, next.hashes
	}
	root, ok := v.root(g.count)
	if !ok || root != g.root {
		return invalidf("group %d range proof does not bind to its root", g.group)
	}
	if next != nil {
		next.hashes = v.out
		next.groups = append(next.groups, frontierGroup{
			group: g.group, count: g.count, end: g.end, root: g.root,
			off: off, left: v.nLeft, right: len(v.out) - off - v.nLeft,
		})
	}
	return nil
}
