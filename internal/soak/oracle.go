package soak

import (
	"fmt"
	"sync"

	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// oracle is the shadow of every write the soak run issued: per merged
// list, the sealed bytes the cluster acknowledged (present) or might
// hold (uncertain). The identity check compares cluster answers
// against it element-by-element — acknowledged writes must never be
// lost, and nothing the oracle never sent may appear.
//
// Uncertainty is essential under chaos: a SIGKILL can land after the
// server applied a write but before the client read the response, so
// a client-visible error proves nothing either way. Such elements are
// allowed in both worlds until a quiesced check observes the
// authoritative state and resolves them.
type oracle struct {
	mu sync.Mutex
	// lists maps each list's sealed elements to whether they are
	// present (true: the element MUST be served) or uncertain (false:
	// an insert or a remove of it failed ambiguously, so it MAY be).
	lists map[zerber.ListID]map[string]bool
}

func newOracle() *oracle {
	return &oracle{lists: make(map[zerber.ListID]map[string]bool)}
}

// listOf returns (creating) one list's entry map.
func (o *oracle) listOf(list zerber.ListID) map[string]bool {
	m := o.lists[list]
	if m == nil {
		m = make(map[string]bool)
		o.lists[list] = m
	}
	return m
}

// inserted records an insert batch: acknowledged, its elements are
// present; failed, each is uncertain.
func (o *oracle) inserted(ops []server.InsertOp, acked bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, op := range ops {
		o.listOf(op.List)[string(op.Element.Sealed)] = acked
	}
}

// removed records a remove batch of present elements: acknowledged,
// they are gone; failed, each is uncertain.
func (o *oracle) removed(ops []server.RemoveOp, acked bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, op := range ops {
		m := o.listOf(op.List)
		if acked {
			delete(m, string(op.Sealed))
		} else {
			m[string(op.Sealed)] = false
		}
	}
}

// snapshotLists returns the IDs of every list the oracle has entries
// for (sorted order is the caller's business).
func (o *oracle) snapshotLists() []zerber.ListID {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]zerber.ListID, 0, len(o.lists))
	for l, m := range o.lists {
		if len(m) > 0 {
			out = append(out, l)
		}
	}
	return out
}

// counts reports the current (present, uncertain) entry totals.
func (o *oracle) counts() (present, uncertain int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, m := range o.lists {
		for _, must := range m {
			if must {
				present++
			} else {
				uncertain++
			}
		}
	}
	return present, uncertain
}

// checkList compares one list's served elements (as a set of sealed
// bytes) against the oracle and returns human-readable violations:
// a served element the oracle never sent, or a present entry the
// server lost. Must only be called while the workload is quiesced.
func (o *oracle) checkList(list zerber.ListID, served map[string]bool, member string) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.lists[list]
	var out []string
	for sealed := range served {
		if _, ok := m[sealed]; !ok {
			out = append(out, fmt.Sprintf("list %d on %s: served element the oracle never inserted", list, member))
		}
	}
	for sealed, must := range m {
		if must && !served[sealed] {
			out = append(out, fmt.Sprintf("list %d on %s: acknowledged element lost", list, member))
		}
	}
	return out
}

// resolveList settles one list's uncertain entries against the
// primary's authoritative served set: an uncertain insert the primary
// does not hold is confirmed rejected (dropped); an uncertain remove
// the primary no longer holds is confirmed applied (dropped). Entries
// the primary holds stay uncertain — replicas that never received the
// ambiguous write may legitimately lack them, so promoting to present
// would manufacture false violations on the next member check.
func (o *oracle) resolveList(list zerber.ListID, primaryServed map[string]bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.lists[list]
	for sealed, must := range m {
		if !must && !primaryServed[sealed] {
			delete(m, sealed)
		}
	}
}
