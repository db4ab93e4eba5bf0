package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"zerberr/internal/obs"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

func seedServer(t *testing.T, s *Server, lists, perList int) {
	t.Helper()
	s.RegisterUser("owner", 0, 1, 2)
	toks, err := s.Login(context.Background(), "owner")
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lists; l++ {
		for i := 0; i < perList; i++ {
			el := StoredElement{Sealed: []byte{byte(l), byte(i)}, TRS: float64(i), Group: i % 3}
			if err := insertOne(context.Background(), s, toks[i%3], zerber.ListID(l), el); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAdminSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := New([]byte("secret"), time.Hour)
	seedServer(t, src, 3, 9)
	exp, err := src.ExportSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Tailable {
		t.Fatal("a memory-backed server claims a tail")
	}
	dst := New([]byte("secret"), time.Hour)
	if err := dst.ImportSnapshot(ctx, exp.Data); err != nil {
		t.Fatal(err)
	}
	srcD, err := src.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dstD, err := dst.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srcD, dstD) {
		t.Fatalf("digests diverge:\n%+v\n%+v", srcD, dstD)
	}
}

// durableServer is a server over a durable store in a fresh directory,
// with the seedServer user registered.
func durableServer(t *testing.T, reg *obs.Registry) *Server {
	t.Helper()
	backend, err := store.OpenDurable(t.TempDir(), store.Options{SnapshotEvery: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithBackend([]byte("secret"), time.Hour, backend)
	t.Cleanup(func() { s.Close() })
	return s
}

// adminCall sends one MAC-gated admin request and returns the status and
// body of the answer.
func adminCall(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, _ := http.NewRequest(method, url, bytes.NewReader(body))
	req.Header.Set("X-Zerber-Admin", AdminMAC([]byte("secret")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestAdminApplyTail moves a tail over the admin plane as it crosses
// between shards: the source's log frames from GET /v3/admin/tail,
// posted as they are to /v3/admin/ops. A tail that does not decode
// changes nothing; a remove the destination cannot resolve fails it.
func TestAdminApplyTail(t *testing.T) {
	ctx := context.Background()
	src := durableServer(t, nil)
	seedServer(t, src, 2, 3)
	exp, err := src.ExportSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	toks := mustLogin(t, src, "owner")
	if err := src.InsertBatch(ctx, toks[1], []InsertOp{
		{List: 4, Element: StoredElement{Sealed: []byte("a"), TRS: 0.5, Group: 1}},
		{List: 4, Element: StoredElement{Sealed: []byte("b"), TRS: 0.25, Group: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	beforeRemove := exp.Seq + 2
	if err := src.RemoveBatch(ctx, toks[1], []RemoveOp{{List: 4, Sealed: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	status, tail := adminCall(t, http.MethodGet, fmt.Sprintf("%s/v3/admin/tail?after=%d", srv.URL, exp.Seq), nil)
	if status != http.StatusOK {
		t.Fatalf("tail: status %d: %s", status, tail)
	}

	dst := New([]byte("secret"), time.Hour)
	if err := dst.ImportSnapshot(ctx, exp.Data); err != nil {
		t.Fatal(err)
	}
	dsrv := httptest.NewServer(dst.Handler())
	defer dsrv.Close()
	if status, body := adminCall(t, http.MethodPost, dsrv.URL+"/v3/admin/ops", tail[:len(tail)-1]); status != http.StatusBadRequest {
		t.Fatalf("a torn tail: status %d: %s", status, body)
	}
	if n := dst.ListLen(4); n != 0 {
		t.Fatalf("a tail that does not decode applied %d elements", n)
	}
	if status, body := adminCall(t, http.MethodPost, dsrv.URL+"/v3/admin/ops", tail); status != http.StatusOK {
		t.Fatalf("apply: status %d: %s", status, body)
	}
	srcD, _ := src.Digest(ctx)
	dstD, _ := dst.Digest(ctx)
	if len(srcD) != 3 || len(dstD) != 3 || dstD[2].Elements != 1 || dstD[2].Sum != srcD[2].Sum {
		t.Fatalf("after the tail: source %+v, destination %+v", srcD, dstD)
	}

	// The remove alone, on a shard that never held its element.
	removeOnly, err := src.TailSince(ctx, beforeRemove)
	if err != nil {
		t.Fatal(err)
	}
	if err := New([]byte("secret"), time.Hour).ApplyTail(ctx, removeOnly); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("an unresolvable remove: err=%v, want ErrBadRequest", err)
	}
}

// TestAdminApplyTailBatchesRuns pins the resync/migration write cost: a
// tail's consecutive same-kind records reach a durable backend as one
// batch per run, so five source records — insert, insert, remove,
// remove, insert — cost the destination three WAL records, and every
// list the snapshot carried ends at the source's version.
func TestAdminApplyTailBatchesRuns(t *testing.T) {
	ctx := context.Background()
	src := durableServer(t, nil)
	seedServer(t, src, 3, 6)
	exp, err := src.ExportSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	toks := mustLogin(t, src, "owner")
	insert := func(list zerber.ListID, from, to int) {
		var ops []InsertOp
		for i := from; i < to; i++ {
			ops = append(ops, InsertOp{List: list, Element: StoredElement{Sealed: []byte(fmt.Sprintf("n%02d", i)), TRS: float64(i)}})
		}
		if err := src.InsertBatch(ctx, toks[0], ops); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(ops ...RemoveOp) {
		if err := src.RemoveBatch(ctx, toks[0], ops); err != nil {
			t.Fatal(err)
		}
	}
	insert(0, 0, 20)
	insert(1, 20, 30)
	remove(RemoveOp{List: 0, Sealed: []byte("n00")}, RemoveOp{List: 1, Sealed: []byte{1, 0}})
	remove(RemoveOp{List: 2, Sealed: []byte{2, 3}})
	insert(7, 30, 35) // a list born after the snapshot
	tail, err := src.TailSince(ctx, exp.Seq)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	dst := durableServer(t, reg)
	if err := dst.ImportSnapshot(ctx, exp.Data); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyTail(ctx, tail); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), store.MetricWALRecordsTotal+" 3") {
		t.Fatalf("a tail of 5 source records did not log as 3 destination records; metrics:\n%s", buf.String())
	}
	srcD, _ := src.Digest(ctx)
	dstD, _ := dst.Digest(ctx)
	if len(srcD) != 4 || len(dstD) != 4 {
		t.Fatalf("lists: source %d, destination %d, want 4", len(srcD), len(dstD))
	}
	for i := range srcD {
		if dstD[i].List < 3 && dstD[i] != srcD[i] || dstD[i].Sum != srcD[i].Sum {
			t.Errorf("list %d: source %+v, destination %+v", srcD[i].List, srcD[i], dstD[i])
		}
	}
}

func TestAdminHTTPMACGate(t *testing.T) {
	s := New([]byte("secret"), time.Hour)
	seedServer(t, s, 1, 3)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(mac string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v3/admin/digest", nil)
		if mac != "" {
			req.Header.Set("X-Zerber-Admin", mac)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get(""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no MAC: status %d, want 401", resp.StatusCode)
	}
	if resp := get(AdminMAC([]byte("wrong-secret"))); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong MAC: status %d, want 401", resp.StatusCode)
	}
	if resp := get(AdminMAC([]byte("secret"))); resp.StatusCode != http.StatusOK {
		t.Fatalf("right MAC: status %d, want 200", resp.StatusCode)
	}
	s.SetAdminEnabled(false)
	if resp := get(AdminMAC([]byte("secret"))); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled admin plane: status %d, want 404", resp.StatusCode)
	}
	s.SetAdminEnabled(true)
	if resp := get(AdminMAC([]byte("secret"))); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-enabled admin plane: status %d, want 200", resp.StatusCode)
	}
}

func TestAdminHTTPSnapshotTransfer(t *testing.T) {
	dir := t.TempDir()
	backend, err := store.OpenDurable(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := NewWithBackend([]byte("secret"), time.Hour, backend)
	defer src.Close()
	seedServer(t, src, 2, 6)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	mac := AdminMAC([]byte("secret"))

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v3/admin/snapshot", nil)
	req.Header.Set("X-Zerber-Admin", mac)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Zerber-Tailable") != "1" {
		t.Fatalf("durable export not tailable: %q", resp.Header.Get("X-Zerber-Tailable"))
	}
	if resp.Header.Get("X-Zerber-Seq") != "12" {
		t.Fatalf("seq header %q, want 12 (the seeded operations)", resp.Header.Get("X-Zerber-Seq"))
	}

	dst := New([]byte("secret"), time.Hour)
	dsrv := httptest.NewServer(dst.Handler())
	defer dsrv.Close()
	req, _ = http.NewRequest(http.MethodPut, dsrv.URL+"/v3/admin/snapshot", bytes.NewReader(data))
	req.Header.Set("X-Zerber-Admin", mac)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: status %d: %s", resp.StatusCode, body)
	}
	srcD, err := src.Digest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dstD, err := dst.Digest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srcD, dstD) {
		t.Fatalf("digests diverge after HTTP transfer:\n%+v\n%+v", srcD, dstD)
	}
}

// TestAdminImportServesImportedContent: after an import, reads serve
// the imported lists, and a window retained before it is not
// revalidated — its tag names content the shard no longer holds.
func TestAdminImportServesImportedContent(t *testing.T) {
	ctx := context.Background()
	s := New([]byte("secret"), time.Hour)
	seedServer(t, s, 1, 5)
	toks := mustLogin(t, s, "owner")
	before, err := queryOne(ctx, s, toks, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	other := New([]byte("secret"), time.Hour)
	seedServer(t, other, 1, 2)
	exp, err := other.ExportSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ImportSnapshot(ctx, exp.Data); err != nil {
		t.Fatal(err)
	}
	resp, err := queryOne(ctx, s, toks, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Elements) != 2 {
		t.Fatalf("post-import query sees %d elements, want the imported 2", len(resp.Elements))
	}
	tag := TagOf(before.Elements, before.Exhausted)
	got, err := s.QueryBatch(ctx, toks, []ListQuery{{List: 0, Offset: 0, Count: 5, IfVersion: &before.Version, IfTag: &tag}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Unchanged || len(got[0].Elements) != 2 {
		t.Fatalf("conditional read of the pre-import window: unchanged=%v, %d elements; want the imported 2", got[0].Unchanged, len(got[0].Elements))
	}
}
