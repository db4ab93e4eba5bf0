package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

const testSecret = "replica-test-secret"

// newSeededServer builds an in-process server holding `perList`
// elements in each of `lists` lists.
func newSeededServer(t *testing.T, lists, perList int) *server.Server {
	t.Helper()
	s := server.New([]byte(testSecret), time.Hour)
	seedInto(t, s, lists, perList)
	return s
}

func seedInto(t *testing.T, s *server.Server, lists, perList int) {
	t.Helper()
	s.RegisterUser("u", 0, 1)
	toks := login(t, s)
	for l := 0; l < lists; l++ {
		for i := 0; i < perList; i++ {
			el := server.StoredElement{
				Sealed: []byte(fmt.Sprintf("l%d-e%d", l, i)),
				TRS:    float64(i),
				Group:  i % 2,
			}
			if err := client.InsertOne(context.Background(), s.InsertBatch, toks[i%2], zerber.ListID(l), el); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func login(t *testing.T, s *server.Server) []crypt.Token {
	t.Helper()
	toks, err := s.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// faultTransport fails every operation with a transport-style error.
type faultTransport struct{ err error }

func (f faultTransport) Login(context.Context, string) ([]crypt.Token, error) { return nil, f.err }
func (f faultTransport) Insert(ctx context.Context, tok crypt.Token, list zerber.ListID, el server.StoredElement) error {
	return client.InsertOne(ctx, f.InsertBatch, tok, list, el)
}
func (f faultTransport) Query(ctx context.Context, toks []crypt.Token, list zerber.ListID, offset, count int) (server.QueryResponse, int, error) {
	return client.QueryOne(ctx, f.QueryBatch, toks, list, offset, count)
}
func (f faultTransport) Remove(ctx context.Context, tok crypt.Token, list zerber.ListID, sealed []byte) error {
	return client.RemoveOne(ctx, f.RemoveBatch, tok, list, sealed)
}
func (f faultTransport) QueryBatch(context.Context, []crypt.Token, []server.ListQuery) (client.BatchQueryResult, error) {
	return client.BatchQueryResult{}, f.err
}
func (f faultTransport) InsertBatch(context.Context, crypt.Token, []server.InsertOp) error {
	return f.err
}
func (f faultTransport) RemoveBatch(context.Context, crypt.Token, []server.RemoveOp) error {
	return f.err
}

// stallTransport answers reads only after `after` (or fails with the
// context's error if canceled first) — a live-but-slow primary.
type stallTransport struct {
	client.Transport
	after time.Duration
}

func (st stallTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	select {
	case <-time.After(st.after):
		return st.Transport.QueryBatch(ctx, toks, queries)
	case <-ctx.Done():
		return client.BatchQueryResult{}, ctx.Err()
	}
}

// failWrites forwards reads (and the admin surface) but fails every
// mutation.
type failWrites struct{ client.Local }

func (f failWrites) InsertBatch(context.Context, crypt.Token, []server.InsertOp) error {
	return errors.New("replica write lost")
}

// TestFailoverRead is the acceptance scenario: a killed primary no
// longer fails queries once a replica is configured.
func TestFailoverRead(t *testing.T) {
	ctx := context.Background()
	repSrv := newSeededServer(t, 2, 8)
	set, err := NewSet(
		faultTransport{errors.New("dial tcp: connection refused")},
		client.Local{S: repSrv},
	)
	if err != nil {
		t.Fatal(err)
	}
	toks := login(t, repSrv)
	got, _, err := set.Query(ctx, toks, 0, 0, 8)
	if err != nil {
		t.Fatalf("query with a dead primary and a live replica: %v", err)
	}
	want, _, err := client.Local{S: repSrv}.Query(ctx, toks, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Elements, want.Elements) {
		t.Fatalf("failover answer diverges from the replica's own:\n%+v\n%+v", got.Elements, want.Elements)
	}
	st := set.Stats()
	if st.Failovers != 1 {
		t.Fatalf("stats = %+v, want exactly one failover", st)
	}
}

func TestWriteFansOutToReplicas(t *testing.T) {
	ctx := context.Background()
	pri := newSeededServer(t, 1, 0)
	rep := newSeededServer(t, 1, 0)
	set, err := NewSet(client.Local{S: pri}, client.Local{S: rep})
	if err != nil {
		t.Fatal(err)
	}
	toks := login(t, pri)
	el := server.StoredElement{Sealed: []byte("fan"), TRS: 1, Group: 0}
	if err := set.Insert(ctx, toks[0], 5, el); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*server.Server{"primary": pri, "replica": rep} {
		resp, _, err := client.Local{S: s}.Query(ctx, login(t, s), 5, 0, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resp.Elements) != 1 || string(resp.Elements[0].Sealed) != "fan" {
			t.Fatalf("%s did not receive the fanned write: %+v", name, resp.Elements)
		}
	}
}

func TestReplicaWriteFaultMarksStale(t *testing.T) {
	ctx := context.Background()
	pri := newSeededServer(t, 1, 0)
	rep := newSeededServer(t, 1, 0)
	set, err := NewSet(client.Local{S: pri}, failWrites{client.Local{S: rep}})
	if err != nil {
		t.Fatal(err)
	}
	toks := login(t, pri)
	// The write succeeds (the primary accepted it) even though the
	// replica lost it.
	if err := set.Insert(ctx, toks[0], 0, server.StoredElement{Sealed: []byte("x"), TRS: 1, Group: 0}); err != nil {
		t.Fatalf("a replica fault must not fail the write: %v", err)
	}
	st := set.Stats()
	if st.Stale != 1 || st.WriteFaults != 1 {
		t.Fatalf("stats = %+v, want the replica stale after one write fault", st)
	}
	// Reads never touch the stale replica: query repeatedly — the
	// answer must always be the primary's (which holds the element the
	// replica lost).
	for i := 0; i < 20; i++ {
		resp, _, err := set.Query(ctx, toks, 0, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Elements) != 1 {
			t.Fatalf("read %d served by the stale replica: %+v", i, resp.Elements)
		}
	}
}

// TestDeterministicAnswerWinsImmediately: a clean rejection — unknown
// list, unknown user — is the request's answer, never a member fault,
// in process and over HTTP alike (where the one error envelope carries
// the code that says so). A run of DemoteAfter of them leaves the
// primary undemoted and no failover recorded.
func TestDeterministicAnswerWinsImmediately(t *testing.T) {
	ctx := context.Background()
	for _, wire := range []string{"local", "http"} {
		pri := newSeededServer(t, 1, 3)
		rep := newSeededServer(t, 1, 3)
		members := []client.Transport{client.Local{S: pri}, client.Local{S: rep}}
		if wire == "http" {
			for i, s := range []*server.Server{pri, rep} {
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				members[i] = client.HTTP{BaseURL: ts.URL}
			}
		}
		set, err := NewSet(members[0], members[1])
		if err != nil {
			t.Fatal(err)
		}
		toks := login(t, pri)
		for name, reject := range map[string]func(){
			"unknown list": func() {
				if _, _, err := set.Query(ctx, toks, 99, 0, 10); !errors.Is(err, server.ErrUnknownList) {
					t.Fatalf("%s: err = %v, want ErrUnknownList", wire, err)
				}
			},
			"unknown user": func() {
				if _, err := set.Login(ctx, "ghost"); !errors.Is(err, server.ErrUnknownUser) {
					t.Fatalf("%s: err = %v, want ErrUnknownUser", wire, err)
				}
			},
		} {
			for i := 0; i < DemoteAfter; i++ {
				reject()
			}
			st := set.Stats()
			if st.Failovers != 0 || st.PrimaryDemoted {
				t.Fatalf("%s, %s: stats = %+v: an application answer must not count as a member fault", wire, name, st)
			}
		}
	}
}

func TestPrimaryDemotionAfterFaultRun(t *testing.T) {
	ctx := context.Background()
	rep := newSeededServer(t, 1, 4)
	set, err := NewSet(faultTransport{errors.New("down")}, client.Local{S: rep})
	if err != nil {
		t.Fatal(err)
	}
	toks := login(t, rep)
	for i := 0; i < DemoteAfter; i++ {
		if _, _, err := set.Query(ctx, toks, 0, 0, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st := set.Stats(); !st.PrimaryDemoted || st.Failovers != DemoteAfter {
		t.Fatalf("stats = %+v, want the primary demoted after %d fault reads", set.Stats(), DemoteAfter)
	}
	// Demoted: the replica is tried first, so the next read involves no
	// failover.
	before := set.Stats()
	if _, _, err := set.Query(ctx, toks, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	after := set.Stats()
	if after.Failovers != before.Failovers {
		t.Fatalf("demoted read still tried the primary first: %+v -> %+v", before, after)
	}
}

func TestAllMembersFaulted(t *testing.T) {
	set, err := NewSet(faultTransport{errors.New("down-a")}, faultTransport{errors.New("down-b")})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = set.Query(context.Background(), nil, 0, 0, 1)
	if err == nil {
		t.Fatal("a read with every member down reported success")
	}
}

func TestNewSetRejectsDuplicates(t *testing.T) {
	s := newSeededServer(t, 1, 1)
	l := client.Local{S: s}
	if _, err := NewSet(l, l); err == nil {
		t.Fatal("a set with the primary wired in twice was accepted")
	}
	h := client.HTTP{BaseURL: "http://shard-a:8021"}
	if _, err := NewSet(h, client.HTTP{BaseURL: "http://shard-a:8021", AdminMAC: "x"}); err == nil {
		t.Fatal("two HTTP transports for one base URL were accepted")
	}
	if _, err := NewSet(h, client.HTTP{BaseURL: "http://shard-b:8021"}); err != nil {
		t.Fatalf("distinct members rejected: %v", err)
	}
}

func TestResync(t *testing.T) {
	for name, mkPrimary := range map[string]func(t *testing.T) *server.Server{
		"memory": func(t *testing.T) *server.Server {
			return server.New([]byte(testSecret), time.Hour)
		},
		"durable": func(t *testing.T) *server.Server {
			b, err := store.OpenDurable(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := server.NewWithBackend([]byte(testSecret), time.Hour, b)
			t.Cleanup(func() { s.Close() })
			return s
		},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			pri := mkPrimary(t)
			seedInto(t, pri, 2, 6)
			rep := newSeededServer(t, 0, 0)
			set, err := NewSet(client.Local{S: pri}, failWrites{client.Local{S: rep}})
			if err != nil {
				t.Fatal(err)
			}
			toks := login(t, pri)
			// One lost write marks the replica stale.
			if err := set.Insert(ctx, toks[0], 0, server.StoredElement{Sealed: []byte("lost"), TRS: 9, Group: 0}); err != nil {
				t.Fatal(err)
			}
			if set.Stats().Stale != 1 {
				t.Fatalf("stats = %+v, want one stale replica", set.Stats())
			}
			if err := set.Resync(ctx); err != nil {
				t.Fatal(err)
			}
			if st := set.Stats(); st.Stale != 0 || st.Resyncs != 1 {
				t.Fatalf("stats after resync = %+v", st)
			}
			// The replica now mirrors the primary exactly — versions
			// included, which is what keeps failover answers revalidatable
			// against windows the primary served.
			priD, err := pri.Digest(ctx)
			if err != nil {
				t.Fatal(err)
			}
			repD, err := rep.Digest(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(priD, repD) {
				t.Fatalf("digests diverge after resync:\n%+v\n%+v", priD, repD)
			}
		})
	}
}
