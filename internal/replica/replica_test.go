package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
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
// longer fails queries once a replica is configured. The hedge timer
// is pinned high to prove the fault path (not the timer) drives the
// failover.
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
	set.SeedHedgeDelay(func() time.Duration { return time.Minute })
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
	if st.Failovers != 1 || st.HedgeWins != 1 || st.Hedges != 0 {
		t.Fatalf("stats = %+v, want exactly one failover win and no timer hedge", st)
	}
}

// TestHedgedReadIdentity: a stalled (but alive) primary, a fast
// replica, and the hedged answer must be element-identical to the
// direct one. The stalled loser is canceled and never counted as a
// fault.
func TestHedgedReadIdentity(t *testing.T) {
	ctx := context.Background()
	priSrv := newSeededServer(t, 2, 8)
	repSrv := newSeededServer(t, 2, 8)
	set, err := NewSet(
		stallTransport{Transport: client.Local{S: priSrv}, after: 30 * time.Second},
		client.Local{S: repSrv},
	)
	if err != nil {
		t.Fatal(err)
	}
	set.SeedHedgeDelay(func() time.Duration { return 2 * time.Millisecond })
	toks := login(t, priSrv)
	got, _, err := set.Query(ctx, toks, 1, 0, 8)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	want, _, err := client.Local{S: repSrv}.Query(ctx, toks, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Elements, want.Elements) {
		t.Fatalf("hedged answer diverges from the direct one:\n%+v\n%+v", got.Elements, want.Elements)
	}
	st := set.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want one hedge and one hedge win", st)
	}
	// The canceled loser is neutral: no failover was recorded and the
	// primary is not on a path to demotion.
	if st.Failovers != 0 || st.PrimaryDemoted {
		t.Fatalf("stats = %+v: the hedge loser was counted as a fault", st)
	}
}

// stalledBackend parks every Query until release is closed.
type stalledBackend struct {
	store.Backend
	release chan struct{}
}

func (b stalledBackend) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	<-b.release
	return b.Backend.Query(list, allowed, offset, count)
}

// TestHedgeLoserOverHTTP: the same race over real HTTP. The stalled
// primary's request is cancelled when the replica's answer wins; the
// set records no failover, and the primary's own books show a client
// that went away (499), not a server error.
func TestHedgeLoserOverHTTP(t *testing.T) {
	ctx := context.Background()
	stalled := stalledBackend{Backend: store.NewMemory(), release: make(chan struct{})}
	priSrv := server.NewWithBackend([]byte(testSecret), time.Hour, stalled)
	seedInto(t, priSrv, 2, 8)
	reg := obs.NewRegistry()
	priSrv.SetObs(reg)
	repSrv := newSeededServer(t, 2, 8)
	priHandler := priSrv.Handler()
	priCtx := make(chan context.Context, 1)
	priServed := make(chan struct{}, 1)
	pri := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		priCtx <- r.Context()
		priHandler.ServeHTTP(w, r)
		priServed <- struct{}{}
	}))
	defer pri.Close()
	rep := httptest.NewServer(repSrv.Handler())
	defer rep.Close()

	set, err := NewSet(client.HTTP{BaseURL: pri.URL}, client.HTTP{BaseURL: rep.URL})
	if err != nil {
		t.Fatal(err)
	}
	set.SeedHedgeDelay(func() time.Duration { return 2 * time.Millisecond })
	toks := login(t, repSrv)
	got, _, err := set.Query(ctx, toks, 1, 0, 8)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	want, _, err := client.Local{S: repSrv}.Query(ctx, toks, 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Elements, want.Elements) {
		t.Fatalf("hedged answer diverges from the direct one:\n%+v\n%+v", got.Elements, want.Elements)
	}
	// The winner's return cancelled the loser; once the primary has
	// seen the connection drop, let it finish answering a peer that is
	// no longer there.
	<-(<-priCtx).Done()
	close(stalled.release)
	<-priServed
	if st := set.Stats(); st.Hedges != 1 || st.HedgeWins != 1 || st.Failovers != 0 || st.PrimaryDemoted {
		t.Fatalf("stats = %+v, want one hedge win and the loser counted as nothing", st)
	}
	var scrape bytes.Buffer
	reg.WritePrometheus(&scrape)
	if !strings.Contains(scrape.String(), server.MetricHTTPRequestsTotal+`{code="499",endpoint="/v2/query"} 1`) {
		t.Errorf("the cancelled loser is not counted under code 499:\n%s", scrape.String())
	}
	if strings.Contains(scrape.String(), `code="5`) {
		t.Errorf("the cancelled loser shows as a server error:\n%s", scrape.String())
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
	// Reads never touch the stale replica: pin an immediate hedge and
	// query repeatedly — the answer must always be the primary's
	// (which holds the element the replica lost).
	set.SeedHedgeDelay(func() time.Duration { return 0 })
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
		set.SeedHedgeDelay(func() time.Duration { return time.Minute })
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
			if st.Failovers != 0 || st.Hedges != 0 || st.PrimaryDemoted {
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
	set.SeedHedgeDelay(func() time.Duration { return time.Minute })
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
	// failover and no hedge win.
	before := set.Stats()
	if _, _, err := set.Query(ctx, toks, 0, 0, 4); err != nil {
		t.Fatal(err)
	}
	after := set.Stats()
	if after.Failovers != before.Failovers || after.HedgeWins != before.HedgeWins {
		t.Fatalf("demoted read still raced the primary first: %+v -> %+v", before, after)
	}
}

func TestAllMembersFaulted(t *testing.T) {
	set, err := NewSet(faultTransport{errors.New("down-a")}, faultTransport{errors.New("down-b")})
	if err != nil {
		t.Fatal(err)
	}
	set.SeedHedgeDelay(func() time.Duration { return 0 })
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
			// included, which is what keeps hedged answers revalidatable
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
