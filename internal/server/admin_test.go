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

	"zerberr/internal/cache"
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

func TestAdminApplyOps(t *testing.T) {
	ctx := context.Background()
	s := New([]byte("secret"), time.Hour)
	ops := []TailOp{
		{Op: store.TailOpInsert, List: 4, Group: 1, TRS: 0.5, Sealed: []byte("a")},
		{Op: store.TailOpInsert, List: 4, Group: 2, TRS: 0.25, Sealed: []byte("b")},
		{Op: store.TailOpRemove, List: 4, Sealed: []byte("b")},
		// Removing what a snapshot already folded away is a no-op.
		{Op: store.TailOpRemove, List: 4, Sealed: []byte("never-inserted")},
	}
	if err := s.ApplyOps(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if n := s.ListLen(4); n != 1 {
		t.Fatalf("list holds %d elements, want 1", n)
	}
	err := s.ApplyOps(ctx, []TailOp{{Op: "frobnicate", List: 1, Sealed: []byte("x")}})
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 0 || !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown op: err=%v, want indexed ErrBadRequest", err)
	}
}

// TestAdminApplyOpsBatchesInsertRuns pins the resync/migration write
// cost: a replayed tail's consecutive inserts reach a durable backend
// as one batched operation per run, so the whole tail costs one WAL
// record per insert run (plus one per remove), not one per element.
func TestAdminApplyOpsBatchesInsertRuns(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	backend, err := store.OpenDurable(t.TempDir(), store.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithBackend([]byte("secret"), time.Hour, backend)
	defer s.Close()
	var ops []TailOp
	for i := 0; i < 50; i++ {
		ops = append(ops, TailOp{Op: store.TailOpInsert, List: 1, Group: i % 3, TRS: float64(i), Sealed: []byte(fmt.Sprintf("a%02d", i))})
	}
	ops = append(ops, TailOp{Op: store.TailOpRemove, List: 1, Sealed: []byte("a00")})
	for i := 0; i < 30; i++ {
		ops = append(ops, TailOp{Op: store.TailOpInsert, List: 2, Group: 0, TRS: float64(i), Sealed: []byte(fmt.Sprintf("b%02d", i))})
	}
	if err := s.ApplyOps(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if n := s.ListLen(1); n != 49 {
		t.Fatalf("list 1 holds %d elements, want 49", n)
	}
	if n := s.ListLen(2); n != 30 {
		t.Fatalf("list 2 holds %d elements, want 30", n)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	// Two insert runs + one remove = three WAL records for 81 ops.
	if !strings.Contains(buf.String(), store.MetricWALRecordsTotal+" 3") {
		t.Fatalf("applying %d ops did not log as 3 WAL records; metrics:\n%s", len(ops), buf.String())
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

func TestAdminImportPurgesResultCache(t *testing.T) {
	ctx := context.Background()
	s := New([]byte("secret"), time.Hour)
	s.SetCache(cache.New(1 << 20))
	seedServer(t, s, 1, 5)
	toks := mustLogin(t, s, "owner")
	if _, err := queryOne(ctx, s, toks, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.CacheStats(); !ok || st.Entries == 0 {
		t.Fatal("warm-up query did not populate the cache")
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
	if st, ok := s.CacheStats(); !ok || st.Entries != 0 {
		t.Fatalf("import left %d cache entries behind", st.Entries)
	}
	resp, err := queryOne(ctx, s, toks, 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Elements) != 2 {
		t.Fatalf("post-import query sees %d elements, want the imported 2", len(resp.Elements))
	}
}
