package server

import (
	"context"
	"errors"
	"testing"

	"zerberr/internal/zerber"
)

// TestRemoveBatchACLObservesVictim: a batched remove decides on exactly
// the element it would delete and applies all of its operations or
// none. Each case puts a removable operation first, so a batch that
// validated one element and then deleted another — or found its second
// operation short only at apply time — would leave that first removal
// behind.
func TestRemoveBatchACLObservesVictim(t *testing.T) {
	ctx := context.Background()
	type listState struct {
		n   int
		ver uint64
	}
	snapshot := func(t *testing.T, s *Server, lists ...zerber.ListID) map[zerber.ListID]listState {
		t.Helper()
		out := make(map[zerber.ListID]listState)
		for _, l := range lists {
			ver, err := s.backend.Version(l)
			if err != nil {
				t.Fatalf("Version(%d): %v", l, err)
			}
			out[l] = listState{s.ListLen(l), ver}
		}
		return out
	}
	cases := []struct {
		name  string
		ops   []RemoveOp
		index int
		want  error
	}{
		{
			// "shared" is stored under group 0 (rank-first, TRS 0.9) and
			// group 1 (TRS 0.2). A remove deletes the rank-first instance,
			// which alice's group-1 token does not cover — however many
			// later instances it does cover.
			name:  "token covers only a later instance",
			ops:   []RemoveOp{{List: 7, Sealed: []byte("hers")}, {List: 8, Sealed: []byte("shared")}},
			index: 1,
			want:  ErrForbidden,
		},
		{
			name: "payload named more often than stored",
			ops: []RemoveOp{
				{List: 7, Sealed: []byte("hers")},
				{List: 8, Sealed: []byte("twice")}, {List: 8, Sealed: []byte("twice")}, {List: 8, Sealed: []byte("twice")},
			},
			index: 3,
			want:  ErrNotFound,
		},
		{
			name:  "unknown list in the middle",
			ops:   []RemoveOp{{List: 7, Sealed: []byte("hers")}, {List: 99, Sealed: []byte("hers")}, {List: 8, Sealed: []byte("twice")}},
			index: 1,
			want:  ErrUnknownList,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer()
			john, alice := mustLogin(t, s, "john"), mustLogin(t, s, "alice")
			for _, in := range []struct {
				list zerber.ListID
				el   StoredElement
			}{
				{7, el(0.5, 1, "hers")},
				{8, el(0.9, 0, "shared")}, {8, el(0.2, 1, "shared")},
				{8, el(0.4, 1, "twice")}, {8, el(0.3, 1, "twice")},
			} {
				if err := insertOne(ctx, s, john[in.el.Group], in.list, in.el); err != nil {
					t.Fatal(err)
				}
			}
			before := snapshot(t, s, 7, 8)
			err := s.RemoveBatch(ctx, alice[0], tc.ops)
			var be *BatchError
			if !errors.As(err, &be) || be.Index != tc.index || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v at op %d", err, tc.want, tc.index)
			}
			if after := snapshot(t, s, 7, 8); after[7] != before[7] || after[8] != before[8] {
				t.Fatalf("rejected batch changed the lists: %v → %v", before, after)
			}
			// The same batch without its bad operation applies whole.
			good := append(append([]RemoveOp(nil), tc.ops[:tc.index]...), tc.ops[tc.index+1:]...)
			if err := s.RemoveBatch(ctx, alice[0], good); err != nil {
				t.Fatalf("batch without the bad op: %v", err)
			}
		})
	}
}
