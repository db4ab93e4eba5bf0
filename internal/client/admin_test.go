package client_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// faultyAdmin wraps a ShardAdmin and injects the failures CatchUpShard
// must survive.
type faultyAdmin struct {
	client.ShardAdmin
	failTail     bool // TailSince errors
	partialApply bool // ApplyTail applies the first record, then errors
	hideTail     bool // exports claim the source keeps no log
	exports      int
}

func (f *faultyAdmin) ExportSnapshot(ctx context.Context) (server.SnapshotExport, error) {
	f.exports++
	exp, err := f.ShardAdmin.ExportSnapshot(ctx)
	if f.hideTail {
		exp.Tailable = false
	}
	return exp, err
}

func (f *faultyAdmin) TailSince(ctx context.Context, seq uint64) ([]byte, error) {
	if f.failTail {
		return nil, errors.New("injected: tail fetch failed")
	}
	return f.ShardAdmin.TailSince(ctx, seq)
}

func (f *faultyAdmin) ApplyTail(ctx context.Context, tail []byte) error {
	if f.partialApply {
		n, k := binary.Uvarint(tail) // the first record's frame: length, payload, CRC
		if err := f.ShardAdmin.ApplyTail(ctx, tail[:k+int(n)+4]); err != nil {
			return err
		}
		return errors.New("injected: apply failed after the first record")
	}
	return f.ShardAdmin.ApplyTail(ctx, tail)
}

// sameContent reports whether two shards hold identical lists, by the
// differential check migration itself runs before it flips a route.
func sameContent(t *testing.T, a, b client.ShardAdmin) bool {
	t.Helper()
	da, err := a.Digest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return cluster.DiffDigests(da, db) == nil
}

// TestShardCopy drives the one shard-copy procedure — CopyShard, writes
// landing on the source meanwhile, CatchUpShard — between two durable
// servers: the clean tail path, and every way the tail can fail — a
// destination that diverged from the source included — each of which
// must end digest-identical through the full re-copy and report zero
// tail bytes.
func TestShardCopy(t *testing.T) {
	ctx := context.Background()
	secret := []byte("copy-secret")
	durable := func() *server.Server {
		d, err := store.OpenDurable(t.TempDir(), store.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		s := server.NewWithBackend(secret, time.Hour, d)
		s.RegisterUser("writer", 0)
		return s
	}
	for _, tc := range []struct {
		name          string
		src, dst      faultyAdmin
		diverge       bool // the destination loses an element a tail remove targets
		wantTailBytes int
		wantExports   int
	}{
		// Three records — two inserts, one remove, one insert creating a
		// list — of 52, 21 and 28 framed bytes.
		{name: "tail replays", wantTailBytes: 101, wantExports: 1},
		{name: "tail fetch fails", src: faultyAdmin{failTail: true}, wantExports: 2},
		{name: "apply fails after a partial apply", dst: faultyAdmin{partialApply: true}, wantExports: 2},
		{name: "source not tailable", src: faultyAdmin{hideTail: true}, wantExports: 2},
		{name: "destination diverged", diverge: true, wantExports: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcSrv, dstSrv := durable(), durable()
			toks, err := srcSrv.Login(ctx, "writer")
			if err != nil {
				t.Fatal(err)
			}
			insert := func(from, to int) {
				ops := make([]server.InsertOp, 0, to-from)
				for i := from; i < to; i++ {
					ops = append(ops, server.InsertOp{List: zerber.ListID(i % 3), Element: server.StoredElement{
						Sealed: []byte(fmt.Sprintf("element-%03d", i)), TRS: float64(i%7) / 7, Group: 0,
					}})
				}
				if err := srcSrv.InsertBatch(ctx, toks[0], ops); err != nil {
					t.Fatal(err)
				}
			}
			src, dst := tc.src, tc.dst
			src.ShardAdmin, dst.ShardAdmin = client.Local{S: srcSrv}, client.Local{S: dstSrv}

			insert(0, 20)
			exp, err := client.CopyShard(ctx, &src, &dst)
			if err != nil {
				t.Fatal(err)
			}
			if !sameContent(t, &src, &dst) {
				t.Fatal("bulk copy left the shards different")
			}
			// Writes the bulk copy did not see: the tail. Two inserts to
			// copied lists, a remove, and an insert that creates a list, so
			// a half-applied tail leaves the destination visibly wrong.
			insert(20, 22)
			victim := []server.RemoveOp{{List: 2, Sealed: []byte("element-005")}}
			if err := srcSrv.RemoveBatch(ctx, toks[0], victim); err != nil {
				t.Fatal(err)
			}
			if err := srcSrv.InsertBatch(ctx, toks[0], []server.InsertOp{{List: 9, Element: server.StoredElement{Sealed: []byte("born-late"), TRS: 0.5}}}); err != nil {
				t.Fatal(err)
			}
			if tc.diverge {
				if err := dstSrv.RemoveBatch(ctx, toks[0], victim); err != nil {
					t.Fatal(err)
				}
			}
			if sameContent(t, &src, &dst) {
				t.Fatal("post-copy writes are invisible to the digest; the test proves nothing")
			}
			tailBytes, err := client.CatchUpShard(ctx, &src, &dst, exp)
			if err != nil {
				t.Fatal(err)
			}
			if tailBytes != tc.wantTailBytes {
				t.Errorf("TailBytes = %d, want %d", tailBytes, tc.wantTailBytes)
			}
			if src.exports != tc.wantExports {
				t.Errorf("source exported %d times, want %d", src.exports, tc.wantExports)
			}
			if !sameContent(t, &src, &dst) {
				t.Error("shards differ after the catch-up")
			}
		})
	}
}
