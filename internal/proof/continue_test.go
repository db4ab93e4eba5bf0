package proof

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// scanFixture is a list whose scans have paths left to continue: group
// 1 holds 80 elements (20 buckets), group 3 six, both in the caller's
// view, and group 2 three foreign ones.
func scanFixture() (map[int][]pEl, map[int]bool) {
	groups := map[int][]pEl{}
	for i := 0; i < 80; i++ {
		groups[1] = append(groups[1], pEl{float64(40 - 2*i), []byte{'a', byte(i)}, 1})
	}
	for i := 0; i < 6; i++ {
		groups[3] = append(groups[3], pEl{float64(37 - 6*i), []byte{'c', byte(i)}, 3})
	}
	for i := 0; i < 3; i++ {
		groups[2] = append(groups[2], pEl{float64(30 - 9*i), []byte{'b', byte(i)}, 2})
	}
	return groups, map[int]bool{1: true, 3: true}
}

// TestContinuationChains walks random lists the way a scan does —
// adjacent windows of doubling size until the list runs out — and at
// every window after the first verifies both the continuation and the
// full proof against the window before. Both must pass and leave the
// same Frontier: the continuation proves exactly what the full proof
// does.
func TestContinuationChains(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 400; trial++ {
		groups := map[int][]pEl{}
		allowed := map[int]bool{}
		for g := 0; g < 1+rng.Intn(4); g++ {
			for i := rng.Intn(70); i > 0; i-- {
				// Ties in TRS, never in (TRS, sealed): the order is total.
				groups[g] = append(groups[g], pEl{float64(rng.Intn(12)) / 4, []byte{byte(g), byte(i)}, g})
			}
			if g == 0 || rng.Intn(3) > 0 {
				allowed[g] = true
			}
		}
		offset, count := 0, 1+rng.Intn(6)
		var prev *Frontier
		for step := 0; ; step++ {
			w, elems, exhausted := buildWindow(11, groups, allowed, offset, count)
			next, err := VerifyNext(prev, w, allowed, offset, count, elems, exhausted, 11)
			if err != nil {
				t.Fatalf("trial %d step %d: full proof rejected: %v", trial, step, err)
			}
			if prev != nil {
				c := Continue(w, elems, nil)
				got, err := VerifyNext(prev, c, allowed, offset, count, elems, exhausted, 11)
				if err != nil {
					t.Fatalf("trial %d step %d [%d,+%d): continuation rejected: %v", trial, step, offset, count, err)
				}
				if !reflect.DeepEqual(got, next) {
					t.Fatalf("trial %d step %d: the continuation leaves another Frontier than the full proof", trial, step)
				}
				if err := VerifyWindow(c, allowed, offset, count, elems, exhausted, 11); err == nil {
					t.Fatalf("trial %d step %d: a continuation verified without the window before it", trial, step)
				}
			}
			if exhausted || len(elems) == 0 {
				if next != nil {
					t.Fatalf("trial %d step %d: a Frontier after the list ended", trial, step)
				}
				break
			}
			prev = next
			offset += len(elems)
			count *= 2
		}
	}
}

// TestContinuationCarriesLess: against the full proof of the same
// window, a continuation drops every opaque header, boundary and
// left-path node, and keeps Version, Root, End and Succ.
func TestContinuationCarriesLess(t *testing.T) {
	groups, allowed := scanFixture()
	w, elems, _ := buildWindow(7, groups, allowed, 2, 4)
	c := Continue(w, elems, nil)
	if !c.Continued || c.Version != w.Version || c.Root != w.Root {
		t.Fatalf("continuation header %+v", c)
	}
	full, cont := 0, 0
	var proved []GroupWindow
	for _, gw := range w.Groups {
		full += len(gw.Path)
		if gw.Opaque == nil {
			proved = append(proved, gw)
		}
	}
	if len(c.Groups) != len(proved) {
		t.Fatalf("%d continuation groups, %d proved ones", len(c.Groups), len(proved))
	}
	for i, gw := range c.Groups {
		cont += len(gw.Path)
		p := proved[i]
		if gw.Group != p.Group || gw.End != p.End || !reflect.DeepEqual(gw.Succ, p.Succ) ||
			gw.Opaque != nil || gw.Root != nil || gw.Count != 0 || gw.Buckets != 0 || gw.First != 0 || gw.Start != 0 || gw.Pred != nil {
			t.Fatalf("continuation group %+v of proved group %+v", gw, p)
		}
	}
	if cont >= full {
		t.Fatalf("continuation paths hold %d hashes, the full proof's %d", cont, full)
	}
}

// TestVerifyNextRejects pins which check fires for each defect of a
// continuation, as TestVerifyWindowRejects does for full proofs.
func TestVerifyNextRejects(t *testing.T) {
	groups, allowed := scanFixture()
	// Visible order: a0 40, a1 38, c0 37, a2 36, a3 34, a4 32, c1 31, ...
	// — the first window holds two elements, the continuation 20, which
	// end in group 1's bucket 4, past the node over the buckets the first
	// one's proof reached.
	start := func() *Frontier {
		w, elems, exhausted := buildWindow(7, groups, allowed, 0, 2)
		f, err := VerifyNext(nil, w, allowed, 0, 2, elems, exhausted, 7)
		if err != nil || f == nil {
			t.Fatalf("first window: %v", err)
		}
		return f
	}
	type call struct {
		prev   *Frontier
		w      *Window
		elems  []WindowElement
		offset int
		exh    bool
		ver    uint64
	}
	build := func() call {
		w, elems, exhausted := buildWindow(7, groups, allowed, 2, 20)
		return call{prev: start(), w: Continue(w, elems, nil), elems: elems, offset: 2, exh: exhausted, ver: 7}
	}
	withPath := func(c *call) *GroupWindow {
		for i := range c.w.Groups {
			if len(c.w.Groups[i].Path) > 0 {
				return &c.w.Groups[i]
			}
		}
		t.Fatal("no continuation group carries a path")
		return nil
	}
	cases := []struct {
		name, want string
		mutate     func(c *call)
	}{
		{"no window before", "continuation with no verified window before it", func(c *call) { c.prev = nil }},
		{"version moved on", "continuation at version 8, the window before it verified at 7", func(c *call) {
			c.w.Version, c.ver = 8, 8
		}},
		{"other root", "continuation root differs from the window before it", func(c *call) { c.w.Root[0] ^= 1 }},
		{"other offset", "continuation at offset 3, the window before it ended at 2", func(c *call) { c.offset = 3 }},
		{"dropped group", "continuation carries 1 groups, the window before it 2", func(c *call) {
			c.w.Groups = c.w.Groups[:1]
		}},
		{"group without state", "continuation group 5 has no verified state", func(c *call) {
			c.w.Groups[1].Group = 5
		}},
		{"full-proof field", "continuation group 1 carries full-proof fields", func(c *call) {
			c.w.Groups[0].Start = 2
		}},
		{"forged right-path hash", "range proof does not bind to its root", func(c *call) {
			gw := withPath(c)
			gw.Path = slices.Clone(gw.Path)
			gw.Path[0].Root[0] ^= 1
		}},
		{"padded path", "range proof does not bind to its root", func(c *call) {
			gw := &c.w.Groups[0]
			gw.Path = append(slices.Clone(gw.Path), Node{Count: 1})
		}},
		{"truncated path", "range proof does not bind to its root", func(c *call) {
			gw := withPath(c)
			gw.Path = gw.Path[:len(gw.Path)-1]
		}},
		{"stripped succ", "group 1 successor edge carries 0 elements", func(c *call) { c.w.Groups[0].Succ = nil }},
		{"forged edge element", "group 1 range proof does not bind to its root", func(c *call) {
			succ := slices.Clone(c.w.Groups[0].Succ)
			succ[len(succ)-1].TRS -= 1
			c.w.Groups[0].Succ = succ
		}},
		{"recounted path node", "range proof does not bind to its root", func(c *call) {
			gw := withPath(c)
			gw.Path = slices.Clone(gw.Path)
			gw.Path[0].Count++
		}},
		{"end shifted up", "window segment holds", func(c *call) { c.w.Groups[0].End++ }},
		{"end shifted down", "window segment holds", func(c *call) { c.w.Groups[0].End-- }},
		{"window above the one before", "window ranks above the end of the window before it", func(c *call) {
			c.prev.last.TRS = -1
		}},
		{"exhausted flag forged", "exhausted flag true, proofs say false", func(c *call) { c.exh = true }},
		{"dropped element", "window segment holds", func(c *call) { c.elems = c.elems[:len(c.elems)-1] }},
	}
	for _, tc := range cases {
		c := build()
		tc.mutate(&c)
		_, err := VerifyNext(c.prev, c.w, allowed, c.offset, 20, c.elems, c.exh, c.ver)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: rejected with %q, want the check %q", tc.name, err, tc.want)
		}
	}
	c := build()
	if _, err := VerifyNext(c.prev, c.w, allowed, c.offset, 20, c.elems, c.exh, c.ver); err != nil {
		t.Fatalf("baseline continuation rejected: %v", err)
	}
}
