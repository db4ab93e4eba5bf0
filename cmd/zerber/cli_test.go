package main

// End-to-end CLI smoke test: builds nothing extra (runs in-process),
// exercising init → artifacts → HTTP server → index → query, the full
// deployment story of the two binaries.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

func writeDocs(t *testing.T, dir string) {
	t.Helper()
	docs := map[string]string{
		"alpha/report.txt":  "the reactor pressure valve exceeded the pressure threshold during the pressure test",
		"alpha/minutes.txt": "project meeting discussed reactor maintenance schedule and valve replacement",
		"beta/spec.txt":     "conveyor belt controller specification with belt speed and belt torque tables",
		"beta/notes.txt":    "controller firmware update improves conveyor startup and belt tracking",
	}
	for name, text := range docs {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCLIEndToEnd(t *testing.T) {
	docsDir := t.TempDir()
	artDir := t.TempDir()
	writeDocs(t, docsDir)

	// zerber init
	cmdInit([]string{"-docs", docsDir, "-out", artDir, "-r", "2", "-seed", "7"})
	for _, f := range []string{"plan.bin", "rstf.bin", "vocab.txt"} {
		if _, err := os.Stat(filepath.Join(artDir, f)); err != nil {
			t.Fatalf("init did not produce %s: %v", f, err)
		}
	}

	// zerberd (in-process via httptest over the same handler)
	srv := server.New([]byte("cli-test-secret-123"), time.Hour)
	srv.RegisterUser("john", 0, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// zerber index
	cmdIndex(context.Background(), []string{
		"-docs", docsDir, "-artifacts", artDir,
		"-server", ts.URL, "-user", "john", "-pass", "hunter2", "-groups", "2",
	})
	if srv.NumElements() == 0 {
		t.Fatal("index stored no elements")
	}

	// zerber query (through the same helpers the CLI uses).
	art := loadArtifacts(artDir)
	cl := newClientForTest(t, art, ts.URL, "john", "hunter2", 2)
	id, ok := art.vocab["pressure"]
	if !ok {
		t.Fatal("vocab lost the term 'pressure'")
	}
	results, stats, err := cl.Search(context.Background(), []corpus.TermID{id}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("query returned nothing")
	}
	if stats.Requests < 1 {
		t.Fatal("no requests recorded")
	}
	// The pressure-heavy report must rank first.
	top := results[0]
	if top.Score < results[len(results)-1].Score {
		t.Fatal("results not ranked")
	}
}

// TestWireCommand: `zerber wire` is what CI and the verify recipes use
// in place of curl on the binary-framed endpoints; its output keeps the
// JSON text those scripts assert on.
func TestWireCommand(t *testing.T) {
	srv := server.New([]byte("cli-test-secret-123"), time.Hour)
	srv.RegisterUser("smoke", 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wire := func(args ...string) string {
		var out bytes.Buffer
		cmdWire(context.Background(), append([]string{"-server", ts.URL, "-user", "smoke"}, args...), &out)
		return strings.TrimSpace(out.String())
	}
	if got := wire("insert", "-list", "1", "-sealed", "AAEC", "-trs", "0.5", "-group", "0"); got != "{}" {
		t.Fatalf("insert printed %q", got)
	}
	var answer struct {
		Responses []struct {
			Elements []struct {
				Sealed string  `json:"sealed"`
				TRS    float64 `json:"trs"`
				Group  int     `json:"group"`
			} `json:"elements"`
			Exhausted bool            `json:"exhausted"`
			Proof     json.RawMessage `json:"proof"`
		} `json:"responses"`
	}
	if err := json.Unmarshal([]byte(wire("query", "-list", "1", "-offset", "0", "-count", "8", "-proof")), &answer); err != nil {
		t.Fatal(err)
	}
	if len(answer.Responses) != 1 || len(answer.Responses[0].Elements) != 1 || !answer.Responses[0].Exhausted || len(answer.Responses[0].Proof) == 0 {
		t.Fatalf("query printed %+v", answer)
	}
	if el := answer.Responses[0].Elements[0]; el.Sealed != "AAEC" || el.TRS != 0.5 || el.Group != 0 {
		t.Fatalf("element printed as %+v", el)
	}
	if got := wire("remove", "-list", "1", "-sealed", "AAEC"); got != "{}" {
		t.Fatalf("remove printed %q", got)
	}
	if srv.NumElements() != 0 {
		t.Fatalf("%d elements left after the remove", srv.NumElements())
	}
}

// newClientForTest mirrors newClient but fails the test instead of
// exiting the process.
func newClientForTest(t *testing.T, art artifacts, serverURL, user, pass string, groups int) *client.Client {
	t.Helper()
	keys := map[int]crypt.GroupKey{}
	for g := 0; g < groups; g++ {
		keys[g] = crypt.KeyFromPassphrase(groupPassphrase(pass, g))
	}
	cl, err := client.New(client.HTTP{BaseURL: serverURL}, client.Config{
		Plan:  art.plan,
		Store: art.store,
		Keys:  keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Login(context.Background(), user); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestLoadDocsGroupAssignment(t *testing.T) {
	dir := t.TempDir()
	writeDocs(t, dir)
	raws, names, err := loadDocs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != 4 || len(names) != 4 {
		t.Fatalf("loaded %d docs", len(raws))
	}
	groups := map[int]bool{}
	for _, r := range raws {
		groups[r.Group] = true
	}
	if len(groups) != 2 {
		t.Fatalf("expected 2 groups, got %v", groups)
	}
}

func TestLoadDocsEmpty(t *testing.T) {
	if _, _, err := loadDocs(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}
