package client_test

import (
	"context"
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
	partialApply bool // ApplyOps applies the first op, then errors
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

func (f *faultyAdmin) TailSince(ctx context.Context, seq uint64) ([]server.TailOp, error) {
	if f.failTail {
		return nil, errors.New("injected: tail fetch failed")
	}
	return f.ShardAdmin.TailSince(ctx, seq)
}

func (f *faultyAdmin) ApplyOps(ctx context.Context, ops []server.TailOp) error {
	if f.partialApply {
		if err := f.ShardAdmin.ApplyOps(ctx, ops[:1]); err != nil {
			return err
		}
		return errors.New("injected: apply failed after the first op")
	}
	return f.ShardAdmin.ApplyOps(ctx, ops)
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
// servers: the clean tail path, and every way the tail can fail, each
// of which must end digest-identical through the full re-copy and
// report zero tail ops.
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
		name        string
		src, dst    faultyAdmin
		wantTailOps int
		wantExports int
	}{
		{name: "tail replays", wantTailOps: 3, wantExports: 1},
		{name: "tail fetch fails", src: faultyAdmin{failTail: true}, wantExports: 2},
		{name: "apply fails after a partial apply", dst: faultyAdmin{partialApply: true}, wantExports: 2},
		{name: "source not tailable", src: faultyAdmin{hideTail: true}, wantExports: 2},
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
			// Writes the bulk copy did not see: the tail. Two inserts to a
			// copied list, one that creates a list, so a half-applied tail
			// leaves the destination visibly wrong.
			insert(20, 22)
			if err := srcSrv.InsertBatch(ctx, toks[0], []server.InsertOp{{List: 9, Element: server.StoredElement{Sealed: []byte("born-late"), TRS: 0.5}}}); err != nil {
				t.Fatal(err)
			}
			if sameContent(t, &src, &dst) {
				t.Fatal("post-copy writes are invisible to the digest; the test proves nothing")
			}
			tailOps, err := client.CatchUpShard(ctx, &src, &dst, exp)
			if err != nil {
				t.Fatal(err)
			}
			if tailOps != tc.wantTailOps {
				t.Errorf("tailOps = %d, want %d", tailOps, tc.wantTailOps)
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
