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
// the group's size or content.
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
}

// WindowElement is the verifier's view of one returned element — the
// fields the commitment binds plus the server-assigned group.
type WindowElement struct {
	TRS    float64
	Sealed []byte
	Group  int
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
// it between replicas, or audit it wholesale.
func VerifyWindow(w *Window, allowed map[int]bool, offset, count int, elems []WindowElement, exhausted bool, version uint64) error {
	if w == nil {
		return invalidf("no proof attached")
	}
	if w.Version != version {
		return invalidf("proof version %d, response version %d", w.Version, version)
	}
	if len(elems) > count {
		return invalidf("window holds %d elements, requested %d", len(elems), count)
	}
	// The merged window must be rank-sorted and stay inside the
	// caller's view; each group's share of it is counted for its range
	// proof.
	counts := make(map[int]int)
	for i, el := range elems {
		if allowed != nil && !allowed[el.Group] {
			return invalidf("element %d claims group %d outside the caller's view", i, el.Group)
		}
		if i > 0 && cmpRank(elems[i-1].TRS, elems[i-1].Sealed, el.TRS, el.Sealed) > 0 {
			return invalidf("window not rank-sorted at element %d", i)
		}
		counts[el.Group]++
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
	entries := make([]HeaderEntry, 0, len(w.Groups))
	prevGroup := 0
	sumStart := 0
	allConsumed := true
	for i, gw := range w.Groups {
		if i > 0 && gw.Group <= prevGroup {
			return invalidf("group headers not strictly ascending at %d", gw.Group)
		}
		prevGroup = gw.Group
		if gw.Opaque != nil {
			// A group outside the view must stay fully opaque — and must
			// not be one of the caller's own groups in disguise.
			if allowed == nil || allowed[gw.Group] {
				return invalidf("group %d of the caller's view carried opaque", gw.Group)
			}
			if gw.Root != nil || gw.Count != 0 || gw.Start != 0 || gw.End != 0 ||
				gw.Pred != nil || gw.Succ != nil || len(gw.Path) != 0 {
				return invalidf("opaque group %d carries window fields", gw.Group)
			}
			entries = append(entries, HeaderEntry{Group: gw.Group, HH: *gw.Opaque})
			continue
		}
		if allowed != nil && !allowed[gw.Group] {
			return invalidf("proved group %d outside the caller's view", gw.Group)
		}
		if gw.Root == nil {
			return invalidf("group %d missing its root", gw.Group)
		}
		if gw.Count <= 0 || gw.Start < 0 || gw.Start > gw.End || gw.End > gw.Count {
			return invalidf("group %d range [%d,%d) of %d malformed", gw.Group, gw.Start, gw.End, gw.Count)
		}
		if (gw.Pred != nil) != (gw.Start > 0) {
			return invalidf("group %d prefix boundary presence inconsistent", gw.Group)
		}
		if (gw.Succ != nil) != (gw.End < gw.Count) {
			return invalidf("group %d suffix boundary presence inconsistent", gw.Group)
		}
		seg, inWindow := segs[gw.Group]
		delete(segs, gw.Group)
		if !inWindow {
			seg = make([]Hash, 1, 2)
		}
		if n := len(seg) - 1; n != gw.End-gw.Start {
			return invalidf("group %d window segment holds %d elements, range claims %d", gw.Group, n, gw.End-gw.Start)
		}
		// Boundary ordering against the whole merged window: the last
		// skipped element must rank at or above the window's first, the
		// first withheld element at or below the window's last. With the
		// window sorted and each group's committed run sorted, this pins
		// every skipped and withheld element outside the window.
		if len(elems) > 0 {
			if gw.Pred != nil && cmpRank(gw.Pred.TRS, gw.Pred.Sealed, elems[0].TRS, elems[0].Sealed) > 0 {
				return invalidf("group %d skipped element ranks inside the window", gw.Group)
			}
			last := elems[len(elems)-1]
			if gw.Succ != nil && cmpRank(last.TRS, last.Sealed, gw.Succ.TRS, gw.Succ.Sealed) > 0 {
				return invalidf("group %d withheld element ranks inside the window", gw.Group)
			}
		}
		if gw.Succ != nil {
			allConsumed = false
		}
		// Rebuild the proved leaf range: boundaries included, so their
		// values are committed too, not just asserted.
		lo, hi := gw.Start, gw.End
		leaves := seg[1:]
		if gw.Pred != nil {
			seg[0] = LeafHash(gw.Pred.TRS, gw.Pred.Sealed)
			leaves = seg
			lo--
		}
		if gw.Succ != nil {
			leaves = append(leaves, LeafHash(gw.Succ.TRS, gw.Succ.Sealed))
			hi++
		}
		root, ok := VerifyRange(gw.Count, lo, hi, leaves, gw.Path)
		if !ok || root != *gw.Root {
			return invalidf("group %d range proof does not bind to its root", gw.Group)
		}
		entries = append(entries, HeaderEntry{Group: gw.Group, HH: HeaderHash(gw.Group, gw.Count, *gw.Root)})
		sumStart += gw.Start
	}
	if len(segs) != 0 {
		return invalidf("window elements of %d group(s) carry no proof", len(segs))
	}
	// Completeness arithmetic. Non-empty window: the skipped prefix is
	// exactly offset elements. Empty window: every proved group sits
	// fully inside the prefix (Start = End = Count, enforced above via
	// empty segments and the exhausted check below), which must not
	// exceed the requested offset.
	if len(elems) > 0 {
		if sumStart != offset {
			return invalidf("skipped prefix holds %d elements, offset is %d", sumStart, offset)
		}
	} else if sumStart > offset {
		return invalidf("empty window but %d elements claimed before offset %d", sumStart, offset)
	}
	// A short window is only legitimate when every group ran dry, and
	// the response's exhausted flag must say exactly that.
	if len(elems) < count && !allConsumed {
		return invalidf("window short of count with elements withheld")
	}
	if exhausted != allConsumed {
		return invalidf("exhausted flag %v, proofs say %v", exhausted, allConsumed)
	}
	// Everything above bound the per-group claims; now bind the claims
	// to the advertised root.
	if got := ListRoot(w.Version, ContentRoot(entries)); got != w.Root {
		return invalidf("headers do not rebuild the advertised root")
	}
	return nil
}
