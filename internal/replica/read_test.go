package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// countingTransport counts the read batches a member is asked.
type countingTransport struct {
	client.Transport
	reads atomic.Int64
}

func (c *countingTransport) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	c.reads.Add(1)
	return c.Transport.QueryBatch(ctx, toks, queries)
}

// TestReadContract holds a set read to its one path: the members are
// asked one at a time on the caller's context, a fault moves on at
// once, and nothing else ever reaches a second member.
func TestReadContract(t *testing.T) {
	for _, tc := range []struct {
		name    string
		primary func(s *server.Server) client.Transport
		// timeout, when set, is the caller's deadline on the read.
		timeout      time.Duration
		wantErr      error
		wantPrimary  int64
		wantReplica  int64
		wantFailover uint64
	}{
		{
			name:        "healthy primary",
			primary:     func(s *server.Server) client.Transport { return client.Local{S: s} },
			wantPrimary: 1,
		},
		{
			name: "faulting primary",
			primary: func(*server.Server) client.Transport {
				return faultTransport{errors.New("dial tcp: connection refused")}
			},
			wantPrimary:  1,
			wantReplica:  1,
			wantFailover: 1,
		},
		{
			name: "stalled primary",
			primary: func(s *server.Server) client.Transport {
				return stallTransport{Transport: client.Local{S: s}, after: time.Minute}
			},
			timeout:     20 * time.Millisecond,
			wantErr:     context.DeadlineExceeded,
			wantPrimary: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			priSrv := newSeededServer(t, 2, 8)
			repSrv := newSeededServer(t, 2, 8)
			pri := &countingTransport{Transport: tc.primary(priSrv)}
			rep := &countingTransport{Transport: client.Local{S: repSrv}}
			set, err := NewSet(pri, rep)
			if err != nil {
				t.Fatal(err)
			}
			toks := login(t, repSrv)
			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			got, _, err := set.Query(ctx, toks, 1, 0, 8)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if n := pri.reads.Load(); n != tc.wantPrimary {
				t.Errorf("primary asked %d times, want %d", n, tc.wantPrimary)
			}
			if n := rep.reads.Load(); n != tc.wantReplica {
				t.Errorf("replica asked %d times, want %d", n, tc.wantReplica)
			}
			if st := set.Stats(); st.Failovers != tc.wantFailover {
				t.Errorf("stats = %+v, want %d failovers", st, tc.wantFailover)
			}
			if tc.wantErr != nil {
				// An abandoned read charges no member: the primary is not
				// on a path to demotion.
				if n := set.members[0].consecFails.Load(); n != 0 {
					t.Errorf("primary fault run = %d after the caller's deadline, want 0", n)
				}
				return
			}
			// The answer is element-identical to the answering member's own.
			answering := priSrv
			if tc.wantReplica > 0 {
				answering = repSrv
			}
			want, _, err := client.Local{S: answering}.Query(context.Background(), toks, 1, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Elements, want.Elements) {
				t.Fatalf("set answer diverges from the member's own:\n%+v\n%+v", got.Elements, want.Elements)
			}
		})
	}
}

// insertWatch counts a member's insert batches, and those that failed
// with context.Canceled while the context they ran under was live.
type insertWatch struct {
	client.Transport
	inserts, canceled *atomic.Int64
}

func (w *insertWatch) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	err := w.Transport.InsertBatch(ctx, tok, ops)
	w.inserts.Add(1)
	if errors.Is(err, context.Canceled) && ctx.Err() == nil {
		w.canceled.Add(1)
	}
	return err
}

// TestNoCanceledInsertWithLiveContext runs set reads and set inserts
// side by side for two seconds over real HTTP, both members behind one
// shared http.Client. No member insert may fail with context.Canceled
// while its own context is live: a read's cleanup must never reach a
// write's request (a replica that misses a write goes stale).
func TestNoCanceledInsertWithLiveContext(t *testing.T) {
	hc := &http.Client{Timeout: client.DefaultHTTPTimeout}
	var inserts, canceled atomic.Int64
	members := make([]client.Transport, 2)
	for i := range members {
		ts := httptest.NewServer(newSeededServer(t, 4, 8).Handler())
		defer ts.Close()
		members[i] = &insertWatch{
			Transport: client.HTTP{BaseURL: ts.URL, Client: hc},
			inserts:   &inserts,
			canceled:  &canceled,
		}
	}
	set, err := NewSet(members[0], members[1])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	toks, err := set.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	stop := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	var readErrs atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries := []server.ListQuery{{List: 0, Count: 8}, {List: 1, Count: 8}, {List: 2, Count: 8}, {List: 3, Count: 8}}
			for time.Now().Before(stop) {
				if _, err := set.QueryBatch(ctx, toks, queries); err != nil {
					readErrs.Add(1)
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				op := server.InsertOp{List: 3, Element: server.StoredElement{
					Sealed: []byte(fmt.Sprintf("w%d-%d", w, i)), TRS: float64(i), Group: 0,
				}}
				if err := set.InsertBatch(ctx, toks[0], []server.InsertOp{op}); err != nil {
					t.Errorf("insert %d of writer %d: %v", i, w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d member inserts, %d canceled under a live context; stats %+v", inserts.Load(), canceled.Load(), set.Stats())
	if n := canceled.Load(); n != 0 {
		t.Errorf("%d of %d member inserts failed with context.Canceled under a live context", n, inserts.Load())
	}
	if n := readErrs.Load(); n != 0 {
		t.Errorf("%d reads failed", n)
	}
}
