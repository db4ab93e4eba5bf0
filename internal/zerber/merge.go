// Package zerber re-implements the substrate Zerber+R builds on: the
// r-confidential merged inverted index of Zerr et al., "Zerber:
// r-Confidential Indexing for Distributed Documents" (EDBT 2008),
// reference [22] of the Zerber+R paper.
//
// Posting lists of different terms are merged until, per Definition 2,
// the summed term probabilities of each merged list reach 1/r, which
// bounds an adversary's probability amplification for tying a posting
// element to a term. The paper's BFM (Breadth First Merging) scheme
// additionally keeps terms of similar document frequency together, so
// query-time follow-up request counts do not distinguish the merged
// terms (Section 5.2 of Zerber+R).
package zerber

import (
	"errors"
	"fmt"
	"sort"

	"zerberr/internal/corpus"
	"zerberr/internal/stats"
)

// ListID identifies a merged posting list.
type ListID uint32

// TermProb is a term with its occurrence probability p_t, the
// normalized document frequency df(t)/|D| of Definition 2.
type TermProb struct {
	Term corpus.TermID
	P    float64
}

// FromCorpus extracts the (term, p_t) pairs of all corpus terms with
// non-zero document frequency, sorted by decreasing probability (ties
// by ascending term ID). This is the published statistic merging
// operates on.
func FromCorpus(c *corpus.Corpus) []TermProb {
	terms := c.TermsByDF()
	out := make([]TermProb, len(terms))
	for i, t := range terms {
		out[i] = TermProb{Term: t, P: c.PT(t)}
	}
	return out
}

// MergePlan maps every term to its merged posting list. It is the
// client-side dictionary artifact created at index initialization.
type MergePlan struct {
	r      float64
	assign map[corpus.TermID]ListID
	lists  [][]corpus.TermID
	p      map[corpus.TermID]float64
}

// ErrInfeasible is returned when the total term probability mass
// cannot support even one r-confidential merged list.
var ErrInfeasible = errors.New("zerber: total term probability below 1/r, no r-confidential merge exists")

// R returns the confidentiality parameter the plan was built for.
func (m *MergePlan) R() float64 { return m.r }

// NumLists returns the number of merged posting lists.
func (m *MergePlan) NumLists() int { return len(m.lists) }

// ListOf returns the merged list holding term t.
func (m *MergePlan) ListOf(t corpus.TermID) (ListID, bool) {
	l, ok := m.assign[t]
	return l, ok
}

// Terms returns the terms merged into list l. The returned slice is
// shared; callers must not modify it.
func (m *MergePlan) Terms(l ListID) []corpus.TermID {
	if int(l) >= len(m.lists) {
		return nil
	}
	return m.lists[l]
}

// P returns the recorded occurrence probability of term t.
func (m *MergePlan) P(t corpus.TermID) float64 { return m.p[t] }

// ListMass returns Σ p_t over the terms of list l (the Definition 2
// left-hand side).
func (m *MergePlan) ListMass(l ListID) float64 {
	sum := 0.0
	for _, t := range m.Terms(l) {
		sum += m.p[t]
	}
	return sum
}

// AllTerms returns every assigned term in ascending ID order.
func (m *MergePlan) AllTerms() []corpus.TermID {
	out := make([]corpus.TermID, 0, len(m.assign))
	for t := range m.assign {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Verify checks the Definition 2 invariant on every merged list
// (Σ p_t ≥ 1/r, up to a small numeric tolerance) plus structural
// consistency (each term in exactly one list, assignments matching the
// list contents).
func (m *MergePlan) Verify() error {
	const tol = 1e-9
	seen := make(map[corpus.TermID]ListID, len(m.assign))
	for li, terms := range m.lists {
		if len(terms) == 0 {
			return fmt.Errorf("zerber: list %d is empty", li)
		}
		sum := 0.0
		for _, t := range terms {
			if prev, dup := seen[t]; dup {
				return fmt.Errorf("zerber: term %d in lists %d and %d", t, prev, li)
			}
			seen[t] = ListID(li)
			if got, ok := m.assign[t]; !ok || got != ListID(li) {
				return fmt.Errorf("zerber: term %d assignment inconsistent", t)
			}
			sum += m.p[t]
		}
		if sum+tol < 1/m.r {
			return fmt.Errorf("zerber: list %d mass %v violates r-confidentiality (need >= %v)", li, sum, 1/m.r)
		}
	}
	if len(seen) != len(m.assign) {
		return fmt.Errorf("zerber: %d terms assigned but %d appear in lists", len(m.assign), len(seen))
	}
	return nil
}

// build closes contiguous runs over the given term order until each
// run reaches the required mass. A trailing underweight run is folded
// into the previously closed list so the invariant holds everywhere.
func build(order []TermProb, r float64, targetMass float64) (*MergePlan, error) {
	if r <= 0 {
		return nil, errors.New("zerber: r must be positive")
	}
	need := 1 / r
	if targetMass < need {
		targetMass = need
	}
	total := 0.0
	for _, tp := range order {
		total += tp.P
	}
	if total < need {
		return nil, ErrInfeasible
	}
	m := &MergePlan{
		r:      r,
		assign: make(map[corpus.TermID]ListID, len(order)),
		p:      make(map[corpus.TermID]float64, len(order)),
	}
	var run []corpus.TermID
	sum := 0.0
	for _, tp := range order {
		run = append(run, tp.Term)
		m.p[tp.Term] = tp.P
		sum += tp.P
		if sum >= targetMass {
			m.lists = append(m.lists, run)
			run = nil
			sum = 0
		}
	}
	if len(run) > 0 {
		if sum >= need {
			m.lists = append(m.lists, run)
		} else {
			// Fold the underweight tail into the last closed list.
			last := len(m.lists) - 1
			m.lists[last] = append(m.lists[last], run...)
		}
	}
	for li, terms := range m.lists {
		for _, t := range terms {
			m.assign[t] = ListID(li)
		}
	}
	return m, nil
}

// BFM performs Breadth First Merging: terms are taken in decreasing
// document-frequency order and cut into contiguous runs, each closed
// as soon as its summed probability reaches 1/r. Contiguity in df
// order is what gives every merged list terms of similar frequency
// distribution, the property Zerber+R's query-answering heuristic
// relies on.
func BFM(order []TermProb, r float64) (*MergePlan, error) {
	sorted := sortByP(order)
	return build(sorted, r, 0)
}

// BFMTarget is BFM with a bound on the number of merged lists: runs
// are widened uniformly (to mass max(total/maxLists, 1/r)) so at most
// maxLists lists are produced. The paper's evaluation uses indexes
// with 32K merged posting lists.
func BFMTarget(order []TermProb, r float64, maxLists int) (*MergePlan, error) {
	if maxLists <= 0 {
		return nil, errors.New("zerber: maxLists must be positive")
	}
	sorted := sortByP(order)
	total := 0.0
	for _, tp := range sorted {
		total += tp.P
	}
	return build(sorted, r, total/float64(maxLists))
}

// RandomMerge is the ablation baseline: terms are shuffled before the
// contiguous cut, so merged lists mix arbitrary frequencies. It still
// satisfies Definition 2 but leaks through follow-up request counts
// (the attack Section 5.2 of the paper describes).
func RandomMerge(order []TermProb, r float64, seed uint64) (*MergePlan, error) {
	shuffled := append([]TermProb(nil), order...)
	g := stats.NewRNG(seed).Split("randommerge")
	g.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return build(shuffled, r, 0)
}

// sortByP returns the pairs sorted by decreasing probability, ties by
// ascending term ID, without modifying the input.
func sortByP(order []TermProb) []TermProb {
	sorted := append([]TermProb(nil), order...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].P != sorted[j].P {
			return sorted[i].P > sorted[j].P
		}
		return sorted[i].Term < sorted[j].Term
	})
	return sorted
}
