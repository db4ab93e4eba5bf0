package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSelfTimesHedgedTree drives the attribution over a hand-built
// search: a replica set sends to its primary, hedges to a second
// member that loses and finishes after the set has answered, the
// primary's server runs two sub-queries in parallel, and the client
// decrypts afterwards.
func TestSelfTimesHedgedTree(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Root: 1, Kind: kClientSearch, Start: 0, End: 100},
		{ID: 2, Parent: 1, Root: 1, Kind: kReplica, Start: 10, End: 70},
		{ID: 3, Parent: 2, Root: 1, Kind: kTransport, Start: 12, End: 68},  // primary
		{ID: 4, Parent: 2, Root: 1, Kind: kTransport, Start: 40, End: 90},  // hedge, loses, outlives its parent
		{ID: 5, Parent: 3, Root: 1, Kind: kServer, Start: 20, End: 60},     // primary's handler
		{ID: 6, Parent: 5, Root: 1, Kind: kStoreQuery, Start: 30, End: 50}, // two sub-queries of one batch,
		{ID: 7, Parent: 5, Root: 1, Kind: kStoreQuery, Start: 40, End: 55}, // overlapping
		{ID: 8, Parent: 4, Root: 1, Kind: kServer, Start: 45, End: 85},     // hedge's handler
		{ID: 9, Parent: 1, Root: 1, Kind: kCryptOpen, Start: 80, End: 90},
	}
	// Worked by hand, interval by interval; where n spans have no
	// running child at once, each gets 1/n of the interval:
	//  [0,10) root · [10,12) replica · [12,20) primary · [20,30) server5 ·
	//  [30,40) store6 · [40,45) store6,store7,hedge · [45,50) store6,store7,server8 ·
	//  [50,55) store7,server8 · [55,60) server5,server8 · [60,68) primary,server8 ·
	//  [68,70) server8 (clipped to the replica span) · [70,80) root ·
	//  [80,90) crypt · [90,100) root
	want := []float64{
		30,                        // root
		2,                         // replica
		8 + 4,                     // primary transport
		5.0 / 3,                   // hedge transport
		10 + 2.5,                  // server 5
		10 + 5.0/3 + 5.0/3,        // store 6
		5.0/3 + 5.0/3 + 2.5,       // store 7
		5.0/3 + 2.5 + 2.5 + 4 + 2, // server 8
		10,                        // crypt
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Kind, got[i], want[i])
		}
		sum += got[i]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
}

// TestSelfTimesSequentialChildren is the plain case: self time is the
// span minus its children.
func TestSelfTimesSequentialChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Root: 1, Kind: kClientWrite, Start: 100, End: 200},
		{ID: 2, Parent: 1, Root: 1, Kind: kCryptSeal, Start: 110, End: 120},
		{ID: 3, Parent: 1, Root: 1, Kind: kTransport, Start: 130, End: 190},
		{ID: 4, Parent: 3, Root: 1, Kind: kServer, Start: 140, End: 180},
		{ID: 5, Parent: 4, Root: 1, Kind: kStoreInsert, Start: 150, End: 170},
		// A second tree, to show trees do not leak into each other.
		{ID: 6, Root: 6, Kind: kClientSearch, Start: 150, End: 160},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{30, 10, 20, 20, 20, 10} {
		if got[i] != want {
			t.Errorf("span %d: self %v, want %v", spans[i].ID, got[i], want)
		}
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	for name, tc := range map[string]struct {
		spans []span
		want  string
	}{
		"parent never recorded": {
			[]span{{ID: 1, Root: 1, Kind: kClientSearch, End: 10}, {ID: 2, Parent: 7, Root: 1, Kind: kServer, Start: 1, End: 2}},
			"never recorded",
		},
		"parentless non-root": {
			[]span{{ID: 1, Root: 1, Kind: kStoreQuery, End: 10}},
			"has no parent",
		},
		"ends before it starts": {
			[]span{{ID: 1, Root: 1, Kind: kClientSearch, Start: 10, End: 5}},
			"ends before it starts",
		},
		"duplicate id": {
			[]span{{ID: 1, Root: 1, Kind: kClientSearch, End: 10}, {ID: 1, Root: 1, Kind: kClientSearch, End: 10}},
			"recorded twice",
		},
	} {
		if _, err := selfTimes(tc.spans); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestSettledWaitsForOpenSpans: the loser of a hedged read is still
// running when the search that raced it has returned, and its server
// span can be recorded before the transport span it hangs under. The
// record may only be read once both are in; a record that never
// settles is an error, not a partial answer.
func TestSettledWaitsForOpenSpans(t *testing.T) {
	rec := newRecorder()
	root, closeRoot := rec.open(ref{}, kClientSearch)
	transport, closeTransport := rec.open(root, kTransport)
	_, closeServer := rec.open(transport, kServer)
	closeServer()
	closeRoot()

	got := make(chan []span)
	go func() {
		spans, err := rec.settled(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- spans
	}()
	select {
	case spans := <-got:
		t.Fatalf("settled returned %d spans while the transport span was open", len(spans))
	case <-time.After(20 * time.Millisecond):
	}
	closeTransport()
	spans := <-got
	if _, err := selfTimes(spans); err != nil || len(spans) != 3 {
		t.Fatalf("%d spans, %v; want 3 that nest", len(spans), err)
	}

	_, leak := rec.open(ref{}, kClientSearch)
	defer leak()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := rec.settled(ctx); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("error %v, want one saying a span is still open", err)
	}
}
