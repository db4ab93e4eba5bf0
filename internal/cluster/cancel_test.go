package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// stalledShard blocks every batched query until its context is
// canceled — a shard that accepted the connection but never answers.
type stalledShard struct {
	client.Transport
	stalled chan struct{} // closed once a query is parked
}

func (s *stalledShard) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	select {
	case <-s.stalled:
	default:
		close(s.stalled)
	}
	<-ctx.Done()
	return client.BatchQueryResult{}, ctx.Err()
}

// errorShard fails every batched query immediately.
type errorShard struct {
	client.Transport
}

var errShardDown = errors.New("shard down")

func (errorShard) QueryBatch(context.Context, []crypt.Token, []server.ListQuery) (client.BatchQueryResult, error) {
	return client.BatchQueryResult{}, errShardDown
}

// newCancelCluster builds a 2-shard cluster where shard 1 is wrapped
// by wrap, plus tokens for a registered user.
func newCancelCluster(t *testing.T, wrap func(client.Transport) client.Transport) (*Router, []crypt.Token) {
	t.Helper()
	secret := []byte("cancel-secret")
	shards := make([]client.Transport, 2)
	for i := range shards {
		srv := server.New(secret, time.Hour)
		srv.RegisterUser("u", 0)
		// Both shards hold data so fan-out touches both.
		toks, err := srv.Login(context.Background(), "u")
		if err != nil {
			t.Fatal(err)
		}
		for list := zerber.ListID(0); list < 4; list++ {
			el := server.StoredElement{Sealed: []byte{byte(i), byte(list)}, TRS: 0.5, Group: 0}
			if err := client.InsertOne(context.Background(), srv.InsertBatch, toks[0], list, el); err != nil {
				t.Fatal(err)
			}
		}
		shards[i] = client.Local{S: srv}
	}
	shards[1] = wrap(shards[1])
	router, err := NewRouter(shards...)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := router.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	return router, toks
}

// crossShardQueries touches both shards of a 2-shard router (lists 0
// and 1 hash to shards 0 and 1).
func crossShardQueries() []server.ListQuery {
	return []server.ListQuery{
		{List: 0, Offset: 0, Count: 10},
		{List: 1, Offset: 0, Count: 10},
	}
}

// TestRouterCancelAbandonsStalledShard cancels the caller's context
// while one shard is stalled and requires QueryBatch to return
// context.Canceled promptly instead of waiting the shard out.
func TestRouterCancelAbandonsStalledShard(t *testing.T) {
	stall := &stalledShard{stalled: make(chan struct{})}
	router, toks := newCancelCluster(t, func(tr client.Transport) client.Transport {
		stall.Transport = tr
		return stall
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := router.QueryBatch(ctx, toks, crossShardQueries())
		done <- err
	}()
	select {
	case <-stall.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled shard never received its sub-batch")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryBatch returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("router did not abandon the stalled shard after cancel")
	}
}

// TestRouterFirstErrorCancelsSiblings wires one failing and one
// stalled shard: the failing shard's error must cancel the stalled
// sibling's context, so the fan-out returns the real error promptly —
// and attributes it to the right shard.
func TestRouterFirstErrorCancelsSiblings(t *testing.T) {
	stall := &stalledShard{stalled: make(chan struct{})}
	secret := []byte("cancel-secret")
	srv := server.New(secret, time.Hour)
	srv.RegisterUser("u", 0)
	stall.Transport = client.Local{S: srv}
	router, err := NewRouter(errorShard{client.Local{S: srv}}, stall)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := router.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := router.QueryBatch(context.Background(), toks, crossShardQueries())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errShardDown) {
			t.Fatalf("QueryBatch returned %v, want the failing shard's error", err)
		}
		if want := "shard 0"; !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first shard error did not cancel the stalled sibling")
	}
}
