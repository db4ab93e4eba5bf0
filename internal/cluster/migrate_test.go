package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

func TestNewRouterRejectsDuplicateTransports(t *testing.T) {
	srv := server.New([]byte("dup-secret"), time.Hour)
	same := client.Local{S: srv}
	if _, err := NewRouter(same, same); err == nil {
		t.Fatal("one server wired into two slots accepted")
	}
	// Two HTTP transports pointing at the same endpoint are the same
	// shard even when configured differently.
	a := client.HTTP{BaseURL: "http://shard:8080", AdminMAC: "aa"}
	b := client.HTTP{BaseURL: "http://shard:8080", AdminMAC: "bb"}
	if _, err := NewRouter(a, b); err == nil {
		t.Fatal("two HTTP transports with one base URL accepted")
	}
	if _, err := NewRouter(client.Local{S: srv}, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
	// Distinct servers (and distinct endpoints) are fine.
	srv2 := server.New([]byte("dup-secret"), time.Hour)
	if _, err := NewRouter(client.Local{S: srv}, client.Local{S: srv2},
		client.HTTP{BaseURL: "http://other:8080"}); err != nil {
		t.Fatalf("distinct transports rejected: %v", err)
	}
}

// batchErrShard answers every InsertBatch with a clean per-operation
// rejection — the shard is healthy, one op was bad.
type batchErrShard struct {
	client.Transport
}

func (s batchErrShard) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	return &server.BatchError{Index: 0, Err: fmt.Errorf("%w: injected rejection", server.ErrForbidden)}
}

// slowShard sleeps through InsertBatch and reports whether its context
// was canceled while it worked.
type slowShard struct {
	client.Transport
	sawCancel chan error
}

func (s slowShard) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	select {
	case <-time.After(30 * time.Millisecond):
	case <-ctx.Done():
	}
	s.sawCancel <- ctx.Err()
	return nil
}

// TestFanOutBatchErrorDoesNotCancelSiblings pins the selective-cancel
// contract: a clean per-operation BatchError from one shard must let
// the sibling shards finish their independent sub-batches, while the
// error still surfaces remapped onto the caller's index.
func TestFanOutBatchErrorDoesNotCancelSiblings(t *testing.T) {
	secret := []byte("fanout-secret")
	srv0 := server.New(secret, time.Hour)
	srv1 := server.New(secret, time.Hour)
	srv0.RegisterUser("writer", 0)
	srv1.RegisterUser("writer", 0)
	saw := make(chan error, 1)
	router, err := NewRouter(
		batchErrShard{client.Local{S: srv0}},
		slowShard{Transport: client.Local{S: srv1}, sawCancel: saw},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	toks, err := srv0.Login(ctx, "writer")
	if err != nil {
		t.Fatal(err)
	}
	el := server.StoredElement{Sealed: []byte("x"), TRS: 1, Group: 0}
	// List 0 -> shard 0 (rejects op index 0 = caller index 1), list 1 ->
	// shard 1 (slow).
	err = router.InsertBatch(ctx, toks[0], []server.InsertOp{
		{List: 1, Element: el},
		{List: 0, Element: el},
	})
	var be *server.BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("want BatchError at caller index 1, got %v", err)
	}
	if cerr := <-saw; cerr != nil {
		t.Fatalf("sibling shard was canceled by a clean rejection: %v", cerr)
	}
}

// migrateHarness is a 2-shard router with user "writer" (group 0)
// registered everywhere and a destination server standing by.
type migrateHarness struct {
	router *Router
	src    []*server.Server
	dst    *server.Server
	tok    crypt.Token
	toks   []crypt.Token
}

func newMigrateHarness(t *testing.T, durableSrc bool) *migrateHarness {
	t.Helper()
	secret := []byte("migrate-secret")
	mk := func(durable bool) *server.Server {
		if !durable {
			return server.New(secret, time.Hour)
		}
		backend, err := store.OpenDurable(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := server.NewWithBackend(secret, time.Hour, backend)
		t.Cleanup(func() { s.Close() })
		return s
	}
	srv0 := mk(false)
	srv1 := mk(durableSrc)
	dst := mk(false)
	for _, s := range []*server.Server{srv0, srv1, dst} {
		s.RegisterUser("writer", 0)
	}
	router, err := NewRouter(client.Local{S: srv0}, client.Local{S: srv1})
	if err != nil {
		t.Fatal(err)
	}
	toks, err := router.Login(context.Background(), "writer")
	if err != nil {
		t.Fatal(err)
	}
	return &migrateHarness{router: router, src: []*server.Server{srv0, srv1}, dst: dst, tok: toks[0], toks: toks}
}

// TestMigrateUnderConcurrentWrites is the differential identity test
// for live migration: writers keep inserting through the router while
// shard 1 migrates to a fresh server; afterwards every acknowledged
// write must be present, the routing epoch bumped, and a window
// retained from before the migration must still revalidate as
// Unchanged against the new shard (versions survive the move).
// Run under -race this also exercises the write barrier.
func TestMigrateUnderConcurrentWrites(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"memory-src", false}, // not tailable: quiesced re-export path
		{"durable-src", true}, // tailable: WAL-tail catch-up path
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newMigrateHarness(t, tc.durable)
			ctx := context.Background()

			// A quiet list on the migrating shard, with its version
			// captured pre-migration for the revalidation check.
			const quiet = zerber.ListID(101)
			if h.router.ShardFor(quiet) != 1 {
				t.Fatal("test assumes list 101 lives on shard 1")
			}
			if err := h.router.Insert(ctx, h.tok, quiet, server.StoredElement{Sealed: []byte("quiet"), TRS: 1, Group: 0}); err != nil {
				t.Fatal(err)
			}
			pre, _, err := h.router.Query(ctx, h.toks, quiet, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			if pre.Version == 0 {
				t.Fatal("quiet list has no version to revalidate against")
			}

			// Writers hammer odd lists (shard 1) through the router for
			// the whole migration; each records what it got acked.
			const writers = 4
			var (
				mu     sync.Mutex
				oracle = map[zerber.ListID]map[string]bool{}
			)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					list := zerber.ListID(2*w + 1)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						sealed := []byte(fmt.Sprintf("w%d-%d", w, i))
						if err := h.router.Insert(ctx, h.tok, list, server.StoredElement{Sealed: sealed, TRS: float64(i), Group: 0}); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
						mu.Lock()
						if oracle[list] == nil {
							oracle[list] = map[string]bool{}
						}
						oracle[list][string(sealed)] = true
						mu.Unlock()
					}
				}(w)
			}
			// Let the writers build up some state before moving the shard.
			time.Sleep(20 * time.Millisecond)

			rep, err := h.router.Migrate(ctx, 1, client.Local{S: h.dst})
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			// Writers keep going against the migrated-in shard briefly.
			time.Sleep(10 * time.Millisecond)
			close(stop)
			wg.Wait()

			if rep.Epoch != 2 || h.router.Epoch() != 2 {
				t.Fatalf("epoch not bumped: report %d, router %d", rep.Epoch, h.router.Epoch())
			}
			if rep.Lists == 0 || rep.Elements == 0 {
				t.Fatalf("empty migration report: %+v", rep)
			}
			if tc.durable && rep.TailBytes == 0 && h.src[1].NumElements() > rep.Elements {
				t.Fatalf("durable source moved writes but replayed no tail: %+v", rep)
			}

			// Differential identity: every acknowledged write answers
			// through the router, and nothing extra appears.
			mu.Lock()
			defer mu.Unlock()
			for list, want := range oracle {
				resp, _, err := h.router.Query(ctx, h.toks, list, 0, len(want)+16)
				if err != nil {
					t.Fatalf("list %d: %v", list, err)
				}
				if !resp.Exhausted {
					t.Fatalf("list %d: window not exhausted at %d elements", list, len(want)+16)
				}
				got := map[string]bool{}
				for _, el := range resp.Elements {
					got[string(el.Sealed)] = true
				}
				if len(got) != len(want) {
					t.Fatalf("list %d: %d elements after migration, oracle has %d", list, len(got), len(want))
				}
				for s := range want {
					if !got[s] {
						t.Fatalf("list %d: acknowledged write %q lost in migration", list, s)
					}
				}
			}

			// The pre-migration window is still current: the new shard
			// vouches for the retained version with an Unchanged marker.
			res, err := h.router.QueryBatch(ctx, h.toks, []server.ListQuery{
				{List: quiet, Offset: 0, Count: 10, IfVersion: &pre.Version},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Responses[0].Unchanged {
				t.Fatalf("quiet list did not revalidate across the migration: %+v", res.Responses[0])
			}

			// The new transport is live in the table; the old server no
			// longer receives the shard's traffic.
			if got := h.router.transport(1); got != (client.Local{S: h.dst}) {
				t.Fatalf("table still routes shard 1 to %T", got)
			}
			if ok, fail := h.router.migrationsOK.Load(), h.router.migrationsFailed.Load(); ok != 1 || fail != 0 {
				t.Fatalf("migration counters ok=%d fail=%d", ok, fail)
			}
		})
	}
}

// TestMigrateValidation covers the refusals: bad slot, nil or
// duplicate destination, and transports without the admin plane.
func TestMigrateValidation(t *testing.T) {
	h := newMigrateHarness(t, false)
	ctx := context.Background()
	if _, err := h.router.Migrate(ctx, 7, client.Local{S: h.dst}); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := h.router.Migrate(ctx, 0, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if _, err := h.router.Migrate(ctx, 0, client.Local{S: h.src[1]}); err == nil {
		t.Fatal("destination already serving a slot accepted")
	}
	// A wrapped transport hides the admin surface.
	if _, err := h.router.Migrate(ctx, 0, &faultyTransport{Transport: client.Local{S: h.dst}}); err == nil {
		t.Fatal("destination without admin surface accepted")
	}
	if ok, fail := h.router.migrationsOK.Load(), h.router.migrationsFailed.Load(); ok != 0 || fail != 4 {
		t.Fatalf("migration counters ok=%d fail=%d", ok, fail)
	}
	// The router still works after the refusals.
	if _, err := h.router.Login(ctx, "writer"); err != nil {
		t.Fatal(err)
	}
}
