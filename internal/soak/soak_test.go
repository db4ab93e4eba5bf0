package soak

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/crypt"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// zerberdBin is the scratch zerberd every test in this package boots;
// TestMain builds it once.
var zerberdBin string

func TestMain(m *testing.M) {
	path, cleanup, err := BuildZerberd(context.Background(), "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "building zerberd: %v\n", err)
		os.Exit(1)
	}
	zerberdBin = path
	code := m.Run()
	cleanup()
	os.Exit(code)
}

// startScratch boots one zerberd on a scratch data dir with one
// all-groups test user and returns the proc plus its transport.
func startScratch(t *testing.T, name string) (*Proc, client.HTTP) {
	t.Helper()
	dir := t.TempDir()
	secretFile, secret, err := WriteSecret(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartProc(ProcConfig{
		Binary:     zerberdBin,
		Name:       name,
		DataDir:    filepath.Join(dir, "data"),
		SecretFile: secretFile,
		Users:      []string{"tester=0,1"},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.Alive() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			p.Stop(ctx)
		}
	})
	return p, client.HTTP{
		BaseURL:  p.BaseURL(),
		Retry:    client.DefaultRetryPolicy(),
		AdminMAC: server.AdminMAC(secret),
	}
}

// seedElements inserts n sealed elements into one list and returns
// the tokens plus the sealed payloads the server acknowledged.
func seedElements(t *testing.T, tr client.HTTP, list zerber.ListID, n int) ([]crypt.Token, [][]byte) {
	t.Helper()
	ctx := context.Background()
	toks, err := tr.Login(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]server.InsertOp, n)
	sealed := make([][]byte, n)
	for i := range ops {
		sealed[i] = []byte(fmt.Sprintf("sealed-element-%03d", i))
		ops[i] = server.InsertOp{
			List:    list,
			Element: server.StoredElement{Sealed: sealed[i], TRS: float64(n-i) / float64(n), Group: toks[0].Group},
		}
	}
	if err := tr.InsertBatch(ctx, toks[0], ops); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	return toks, sealed
}

// requireServed asserts one member serves exactly the given sealed set
// on the list.
func requireServed(t *testing.T, tr client.HTTP, toks []crypt.Token, list zerber.ListID, sealed [][]byte) {
	t.Helper()
	served, err := pageList(context.Background(), tr, toks, list)
	if err != nil {
		t.Fatalf("pageList: %v", err)
	}
	if len(served) != len(sealed) {
		t.Fatalf("served %d elements, want %d", len(served), len(sealed))
	}
	for _, s := range sealed {
		if !served[string(s)] {
			t.Fatalf("acknowledged element %q lost", s)
		}
	}
}

func TestProcLifecycle(t *testing.T) {
	p, _ := startScratch(t, "lifecycle")
	if !p.Alive() {
		t.Fatal("freshly started proc not alive")
	}
	if p.cmd == nil || p.cmd.Process == nil || p.cmd.Process.Pid == 0 {
		t.Fatal("alive proc has pid 0")
	}
	if err := p.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if p.Alive() {
		t.Fatal("proc alive after SIGKILL")
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !p.Alive() {
		t.Fatal("proc not alive after restart")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if p.Alive() {
		t.Fatal("proc alive after graceful stop")
	}
}

// TestKillMidWALPreservesAckedWrites is the core restart-identity
// fault: SIGKILL immediately after acknowledged writes (no graceful
// snapshot), restart onto the same data dir, and require every
// acknowledged element back. Whatever the server promised before the
// kill must be recoverable from the WAL alone.
func TestKillMidWALPreservesAckedWrites(t *testing.T) {
	p, tr := startScratch(t, "killwal")
	const list = zerber.ListID(7)
	toks, sealed := seedElements(t, tr, list, 50)

	if err := p.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	requireServed(t, tr, toks, list, sealed)
}

// TestGracefulStopPreservesAckedWrites is the same identity assertion
// over the clean path: SIGTERM (final snapshot) then restart.
func TestGracefulStopPreservesAckedWrites(t *testing.T) {
	p, tr := startScratch(t, "graceful")
	const list = zerber.ListID(3)
	toks, sealed := seedElements(t, tr, list, 50)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	requireServed(t, tr, toks, list, sealed)
}

// TestRepeatedKillRestartCycles hammers the kill/restart edge: each
// cycle adds writes, SIGKILLs, restarts, and requires the union of
// everything ever acknowledged.
func TestRepeatedKillRestartCycles(t *testing.T) {
	p, tr := startScratch(t, "cycles")
	const list = zerber.ListID(11)
	ctx := context.Background()
	toks, err := tr.Login(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	var all [][]byte
	for cycle := 0; cycle < 3; cycle++ {
		ops := make([]server.InsertOp, 20)
		for i := range ops {
			s := []byte(fmt.Sprintf("cycle-%d-element-%03d", cycle, i))
			all = append(all, s)
			ops[i] = server.InsertOp{
				List:    list,
				Element: server.StoredElement{Sealed: s, TRS: 0.5, Group: toks[0].Group},
			}
		}
		if err := tr.InsertBatch(ctx, toks[0], ops); err != nil {
			t.Fatalf("cycle %d: InsertBatch: %v", cycle, err)
		}
		if err := p.Kill(); err != nil {
			t.Fatalf("cycle %d: Kill: %v", cycle, err)
		}
		if err := p.Restart(); err != nil {
			t.Fatalf("cycle %d: Restart: %v", cycle, err)
		}
		requireServed(t, tr, toks, list, all)
	}
}

// TestOracleResolution covers the uncertainty protocol: ambiguous
// failures may resolve either way, acknowledged writes may not.
func TestOracleResolution(t *testing.T) {
	o := newOracle()
	const list = zerber.ListID(1)
	insert := func(sealed string, acked bool) {
		o.inserted([]server.InsertOp{{List: list, Element: server.StoredElement{Sealed: []byte(sealed)}}}, acked)
	}
	insert("acked", true)
	insert("maybe", false)

	// The server holding both is fine on any member.
	if vs := o.checkList(list, map[string]bool{"acked": true, "maybe": true}, "m0"); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// A replica missing the uncertain element is fine too.
	if vs := o.checkList(list, map[string]bool{"acked": true}, "m1"); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// Losing the acked element is a violation; serving a never-sent
	// element is a violation.
	if vs := o.checkList(list, map[string]bool{"maybe": true, "alien": true}, "m0"); len(vs) != 2 {
		t.Fatalf("want 2 violations, got %v", vs)
	}

	// Primary doesn't hold "maybe" -> confirmed rejected, dropped.
	o.resolveList(list, map[string]bool{"acked": true})
	present, uncertain := o.counts()
	if present != 1 || uncertain != 0 {
		t.Fatalf("counts = (%d,%d), want (1,0)", present, uncertain)
	}
	// An uncertain entry the primary DOES hold stays uncertain (a
	// replica that never saw the ambiguous write may lack it).
	insert("maybe2", false)
	o.resolveList(list, map[string]bool{"acked": true, "maybe2": true})
	if _, uncertain = o.counts(); uncertain != 1 {
		t.Fatalf("resolved entry the primary holds; want it kept uncertain")
	}

	// Ambiguous remove: present -> uncertain; primary no longer
	// holding it confirms the remove applied.
	o.removed([]server.RemoveOp{{List: list, Sealed: []byte("acked")}}, false)
	o.resolveList(list, map[string]bool{"maybe2": true})
	present, _ = o.counts()
	if present != 0 {
		t.Fatalf("confirmed remove left present = %d", present)
	}
}

// TestEpochCheckerFlagsRemintedVersion feeds the checker two different
// contents under one (list, version, window) and requires a violation
// — and none for honest re-serves.
func TestEpochCheckerFlagsRemintedVersion(t *testing.T) {
	c := newEpochChecker(nil)
	q := server.ListQuery{List: 5, Offset: 0, Count: 10}
	resp := server.QueryResponse{
		Version:  42,
		Elements: []server.StoredElement{{Sealed: []byte("a"), TRS: 0.9, Group: 0}},
	}
	c.observe(q, resp)
	c.observe(q, resp) // identical re-serve: fine
	if v := c.violations.Load(); v != 0 {
		t.Fatalf("honest re-serve flagged: %d violations", v)
	}
	forged := resp
	forged.Elements = []server.StoredElement{{Sealed: []byte("b"), TRS: 0.9, Group: 0}}
	c.observe(q, forged)
	if v := c.violations.Load(); v != 1 {
		t.Fatalf("reminted version not flagged: %d violations", v)
	}
	// Versionless and unchanged responses carry no epoch promise.
	c.observe(q, server.QueryResponse{Version: 0, Elements: forged.Elements})
	c.observe(q, server.QueryResponse{Version: 42, Unchanged: true})
	if v := c.violations.Load(); v != 1 {
		t.Fatalf("versionless/unchanged observation flagged: %d violations", v)
	}
}

// TestSoakSmoke is a bounded end-to-end run of the fixed soak shape:
// a few seconds of load, at least one kill and one migration, zero
// violations — what CI's soak job asserts on its longer run.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke boots a process cluster")
	}
	rep, err := Run(context.Background(), Config{
		ZerberdPath: zerberdBin,
		Dir:         t.TempDir(),
		Duration:    8 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("report: %s", rep.JSON())
	if rep.Ops == 0 || rep.Searches == 0 {
		t.Fatal("soak drove no load")
	}
	if rep.PrimaryKills+rep.ReplicaKills == 0 {
		t.Fatal("no kill was injected")
	}
	if rep.Restarts == 0 {
		t.Fatal("no restart happened")
	}
	if rep.Migrations == 0 {
		t.Fatal("no live migration happened")
	}
	if rep.IdentityChecks == 0 {
		t.Fatal("no identity check ran")
	}
	if rep.RevalidatedWindows == 0 {
		t.Fatal("no window was revalidated")
	}
	if rep.ProvedSearches == 0 {
		t.Fatal("no proved search ran")
	}
	if !rep.OK {
		t.Fatalf("soak not OK: %s", rep.JSON())
	}
}

// cancelAfter is a member transport that cancels the identity check's
// context once it has answered n reads, as the run's deadline would.
type cancelAfter struct {
	client.Transport
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	if c.n == 0 {
		c.cancel()
		return client.BatchQueryResult{}, ctx.Err()
	}
	c.n--
	return c.Transport.QueryBatch(ctx, toks, queries)
}

// TestIdentityCheckStopsAtTheDeadline: a deadline that falls inside an
// identity check ends it with one line saying so and how far it got,
// not with a failed-page line for every list left.
func TestIdentityCheckStopsAtTheDeadline(t *testing.T) {
	p, tr := startScratch(t, "identity")
	toks, err := tr.Login(context.Background(), "tester")
	if err != nil {
		t.Fatal(err)
	}
	const lists, done = 40, 5
	orc := newOracle()
	for l := 0; l < lists; l++ {
		ops := []server.InsertOp{{List: zerber.ListID(l), Element: server.StoredElement{Sealed: []byte(fmt.Sprintf("e%02d", l)), TRS: 0.5, Group: toks[0].Group}}}
		if err := tr.InsertBatch(context.Background(), toks[0], ops); err != nil {
			t.Fatal(err)
		}
		orc.inserted(ops, true)
	}
	set, err := replica.NewSet(tr)
	if err != nil {
		t.Fatal(err)
	}
	router, err := cluster.NewRouter(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lines []string
	r := &run{
		cfg:    Config{Logf: func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }},
		router: router,
		orc:    orc,
		shards: []*shardState{{set: set, procs: []*Proc{p}, trans: []client.Transport{&cancelAfter{Transport: tr, n: done, cancel: cancel}}}},
		toks:   toks,
		rep:    Report{ErrorsByKind: map[string]uint64{}},
	}
	r.identityCheck(ctx)
	want := fmt.Sprintf("chaos: identity check abandoned (context canceled) after %d of %d lists", done, lists)
	if len(lines) != 1 || lines[0] != want {
		t.Fatalf("identity check cut by its deadline logged %d lines %q, want one: %q", len(lines), lines, want)
	}
	if r.rep.IdentityViolations != 0 {
		t.Fatalf("abandoned check reported %d violations", r.rep.IdentityViolations)
	}
}
