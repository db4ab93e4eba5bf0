package main

import (
	"fmt"
	"sort"
)

// kind names what a span covers. One kind per boundary the benchmark
// wraps; the layer a kind belongs to is the part of its name before
// the dot.
type kind uint8

const (
	kClientSearch kind = iota // one client.Search, all rounds (root)
	kClientWrite              // seal one document + batched insert/remove ack (root)
	kCryptOpen
	kCryptSeal
	kCluster   // one call into cluster.Router
	kReplica   // one call into a replica.Set
	kTransport // one call into a client.HTTP
	kServer    // one request inside srv.Handler()
	kStoreQuery
	kStoreQueryProved
	kStoreInsert
	kStoreRemove
	numKinds
)

var kindNames = [numKinds]string{
	"client.search", "client.write", "crypt.open", "crypt.seal",
	"cluster", "replica", "transport", "server",
	"store.query", "store.query_proved", "store.insert", "store.remove",
}

func (k kind) String() string { return kindNames[k] }

func (k kind) root() bool { return k == kClientSearch || k == kClientWrite }

// span is one timed interval at a layer boundary. IDs start at 1;
// Parent 0 marks a root, and Root is the ID of the search or write
// the span belongs to (its own ID on a root). Times are nanoseconds
// since the recorder's epoch.
type span struct {
	ID, Parent, Root uint32
	Kind             kind
	Start, End       int64
}

// selfTimes attributes the wall-clock time of every root span to the
// spans beneath it and returns each span's share in nanoseconds,
// indexed like spans.
//
// A span's self time is its duration minus the part its children
// cover. Children are clipped to their parent first: a hedged request
// that loses the race ends after the replica span that launched it,
// and the time past the parent's end blocked nobody. Where siblings
// run in parallel (the sub-queries of one batch, a hedge beside the
// primary, the shards of one fan-out) the covered instant is split
// equally between the spans that have no running child at that
// instant, so the shares of one tree always sum to its root's
// duration — which is what lets per-layer times be read as shares of
// the search latency.
//
// It fails on a span whose parent was never recorded, on a parentless
// span that is not a root kind, and on a span that ends before it
// starts.
func selfTimes(spans []span) ([]float64, error) {
	index := make(map[uint32]int, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Kind)
		}
		if _, dup := index[s.ID]; dup || s.ID == 0 {
			return nil, fmt.Errorf("span id %d is zero or recorded twice", s.ID)
		}
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if s.Parent == 0 {
			if !s.Kind.root() {
				return nil, fmt.Errorf("span %d (%s) has no parent", s.ID, s.Kind)
			}
			roots = append(roots, i)
			continue
		}
		p, ok := index[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s): parent %d was never recorded", s.ID, s.Kind, s.Parent)
		}
		children[p] = append(children[p], i)
	}

	self := make([]float64, len(spans))
	// Scratch reused across roots.
	var (
		events []event
		active []int
		parent = make([]int, len(spans))
		busy   = make([]int, len(spans)) // running children per span
	)
	for _, r := range roots {
		events = events[:0]
		// Walk the tree, clipping each span to its parent's clipped
		// interval and emitting start/end events for what remains.
		type frame struct {
			i, depth int
			lo, hi   int64
		}
		stack := []frame{{r, 0, spans[r].Start, spans[r].End}}
		parent[r] = -1
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lo, hi := max(spans[f.i].Start, f.lo), min(spans[f.i].End, f.hi)
			if hi <= lo {
				continue // nothing of it (or of its children) lies inside the parent
			}
			events = append(events, event{lo, f.i, f.depth, true}, event{hi, f.i, f.depth, false})
			for _, c := range children[f.i] {
				parent[c] = f.i
				stack = append(stack, frame{c, f.depth + 1, lo, hi})
			}
		}
		// At one timestamp: ends before starts, children end before
		// their parents, parents start before their children.
		sort.Slice(events, func(a, b int) bool {
			ea, eb := events[a], events[b]
			if ea.t != eb.t {
				return ea.t < eb.t
			}
			if ea.start != eb.start {
				return !ea.start
			}
			if ea.start {
				return ea.depth < eb.depth
			}
			return ea.depth > eb.depth
		})
		active = active[:0]
		last := int64(0)
		for _, e := range events {
			if dt := e.t - last; dt > 0 && len(active) > 0 {
				leaves := 0
				for _, i := range active {
					if busy[i] == 0 {
						leaves++
					}
				}
				share := float64(dt) / float64(leaves)
				for _, i := range active {
					if busy[i] == 0 {
						self[i] += share
					}
				}
			}
			last = e.t
			if e.start {
				active = append(active, e.i)
				if p := parent[e.i]; p >= 0 {
					busy[p]++
				}
				continue
			}
			for j, i := range active {
				if i == e.i {
					active = append(active[:j], active[j+1:]...)
					break
				}
			}
			if p := parent[e.i]; p >= 0 {
				busy[p]--
			}
		}
	}
	return self, nil
}

type event struct {
	t     int64
	i     int // index into spans
	depth int
	start bool
}
