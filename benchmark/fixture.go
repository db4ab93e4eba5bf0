package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	zerberr "zerberr"
	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/rank"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/stats"
	"zerberr/internal/store"
)

// workloadDef is one named workload: the fixture it is served from
// and the operations driven against it.
type workloadDef struct {
	name string
	// scale multiplies corpus.ProfileStudIP() (2 000 documents, 8
	// groups, ≈327k posting elements at 1).
	scale float64
	// maxLists is zerberr.Config.MaxLists; 0 leaves BFM (r = 32)
	// unbounded, which gives many short lists.
	maxLists int
	// readers is the number of reader identities searches are spread
	// over. Reader 0 holds every group; the others hold subsets, so
	// the server caches their windows under keys of their own.
	readers int
	// proofEvery asks every n-th search (by stream position) for a
	// Merkle proof; 1 proves every search, 0 none.
	proofEvery uint64
	// shards × members servers; 1 × 1 is a single zerberd, anything
	// else puts replica sets under a cluster router.
	shards, members int
	// search, insert, remove is the stream's operation mix.
	search, insert, remove float64
	// snapshotEvery is store.Options.SnapshotEvery once the bulk load
	// is done; 0 keeps the store's default (65 536).
	snapshotEvery int
	// warmup is the number of leading stream operations run untimed.
	warmup int
}

const (
	// corpusSeed fixes the corpus, and with it the merge plan, the
	// RSTFs and the group keys: every run serves the same index, and
	// -seed draws the operations against it. (Seeding the corpus too
	// would make run-to-run differences mostly differences between
	// corpora — which terms happen to be popular and how long their
	// lists are — and not between versions of the code.)
	corpusSeed = 1

	topK            = 10
	initialResponse = 10
	cacheBytes      = 64 << 20 // zerberd's -cache-bytes default
	routerCache     = 32 << 20 // what the soak harness installs on its router
	writer          = "bench"  // holds every group; loads the index and issues the writes
)

var workloads = []workloadDef{
	{name: "head", scale: 1, readers: 1, shards: 1, members: 1, search: 1, warmup: 2000},
	{name: "deep", scale: 1, maxLists: 64, readers: 64, shards: 1, members: 1, search: 1, warmup: 300},
	{name: "proved", scale: 1, maxLists: 64, readers: 64, proofEvery: 1, shards: 1, members: 1, search: 1, warmup: 100},
	{name: "mixed", scale: 1, readers: 1, proofEvery: 16, shards: 2, members: 2,
		search: 0.60, insert: 0.28, remove: 0.12, snapshotEvery: 8192, warmup: 1000},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// node is one in-process zerberd: durable store, server, listener.
type node struct {
	dir     string
	reg     *obs.Registry
	durable *store.Durable
	srv     *server.Server
	http    *http.Server
	served  chan error
	url     string
	trace   *serverTrace // nil in an untraced run
}

// fixture is a loaded, serving deployment plus what clients need to
// reach it.
type fixture struct {
	wl     workloadDef
	sys    *zerberr.System
	secret []byte
	dir    string

	nodes  []*node
	sets   []*replica.Set
	router *cluster.Router
	top    client.Transport // what every client talks to

	pool *http.Transport // connection pool shared by all clients

	// Tracing state, nil/empty in an untraced run.
	rec      *recorder
	wire     *tracedRoundTripper
	replicaT []*tracedTransport // above each replica set

	elements      int // posting elements loaded
	snapshotEvery int // store.Options.SnapshotEvery of the next boot
}

// readerGroups is the group set reader i holds. Reader 0 sees
// everything; the rest see a deterministic subset of at least two
// groups.
func readerGroups(i, groups int) []int {
	all := make([]int, groups)
	for g := range all {
		all[g] = g
	}
	if i == 0 || groups <= 2 {
		return all
	}
	z := stats.NewRNG(uint64(i)).Uint64() // one random bit per group
	var out []int
	for g := 0; g < groups; g++ {
		if z>>uint(g)&1 == 1 || g == i%groups || g == (i+3)%groups {
			out = append(out, g)
		}
	}
	return out
}

func readerName(i int) string {
	if i == 0 {
		return writer
	}
	return fmt.Sprintf("reader-%d", i)
}

// buildFixture runs the whole set-up a deployment pays before its
// first query: corpus, the offline phase (zerberr.Setup), server boot,
// and the bulk load of every posting element through the protocol.
func buildFixture(ctx context.Context, wl workloadDef, cfg config, dir string) (_ *fixture, err error) {
	p := corpus.ProfileStudIP().Scale(wl.scale * cfg.scale)
	c := corpus.Generate(p, corpusSeed)
	zcfg := zerberr.DefaultConfig()
	zcfg.Seed = corpusSeed
	zcfg.MaxLists = wl.maxLists
	zcfg.SkipBaseline = true
	sys, err := zerberr.Setup(c, zcfg)
	if err != nil {
		return nil, fmt.Errorf("offline phase: %w", err)
	}
	fx := &fixture{
		wl:     wl,
		sys:    sys,
		secret: []byte("zerberr-benchmark-token-secret"),
		dir:    dir,
		pool:   http.DefaultTransport.(*http.Transport).Clone(),
	}
	// Every client shares one pool; the default of two idle
	// connections per host would make four closed-loop clients redial.
	fx.pool.MaxIdleConnsPerHost = 64
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if cfg.trace {
		fx.rec = newRecorder()
		fx.wire = &tracedRoundTripper{next: fx.pool}
	}
	if err := fx.serve(); err != nil {
		return nil, err
	}
	if err := fx.load(ctx); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	if wl.snapshotEvery != 0 {
		// The bulk load ran under the store's default snapshot policy;
		// the workload's own applies from here on. A snapshot interval
		// this short would otherwise rewrite the growing index dozens
		// of times during the load.
		fx.snapshotEvery = wl.snapshotEvery
		if err := fx.restart(); err != nil {
			return nil, fmt.Errorf("restart after bulk load: %w", err)
		}
	}
	return fx, nil
}

// serve boots one server per data directory and wires the clients'
// side of the topology over them: a bare client.HTTP for a single
// server, otherwise replica sets under a cluster router with the
// router's window cache installed, as the soak harness wires them.
func (fx *fixture) serve() error {
	var rt http.RoundTripper = fx.pool
	if fx.wire != nil {
		rt = fx.wire
	}
	hc := &http.Client{Transport: rt, Timeout: client.DefaultHTTPTimeout}
	wl := fx.wl
	fx.sets, fx.replicaT = nil, nil
	for s := 0; s < wl.shards; s++ {
		members := make([]client.Transport, wl.members)
		for m := range members {
			n, err := fx.boot(filepath.Join(fx.dir, fmt.Sprintf("s%d-m%d", s, m)))
			if err != nil {
				return err
			}
			members[m] = fx.traced(client.HTTP{
				BaseURL:  n.url,
				Client:   hc,
				Retry:    client.DefaultRetryPolicy(),
				AdminMAC: server.AdminMAC(fx.secret),
			}, kTransport)
		}
		if wl.shards == 1 && wl.members == 1 {
			fx.top = members[0]
			return nil
		}
		set, err := replica.NewSet(members[0], members[1:]...)
		if err != nil {
			return err
		}
		fx.sets = append(fx.sets, set)
	}
	shards := make([]client.Transport, len(fx.sets))
	for i, set := range fx.sets {
		shards[i] = fx.traced(set, kReplica)
		if t, ok := shards[i].(*tracedTransport); ok {
			fx.replicaT = append(fx.replicaT, t)
		}
	}
	router, err := cluster.NewRouter(shards...)
	if err != nil {
		return err
	}
	router.SetCache(cache.New(routerCache))
	fx.router = router
	if fx.rec != nil {
		// The router seeds a replica set's hedge delay only when it is
		// handed the *replica.Set itself; behind the tracing wrapper
		// the benchmark repeats that seeding from the router's public
		// health figures, so a traced run hedges like an untraced one.
		for i, set := range fx.sets {
			set.SeedHedgeDelay(fx.hedgeSeed(i))
		}
	}
	fx.top = fx.traced(router, kCluster)
	return nil
}

// traced wraps t for a traced run and leaves it alone otherwise.
func (fx *fixture) traced(t client.Transport, k kind) client.Transport {
	if fx.rec == nil {
		return t
	}
	return &tracedTransport{next: t, rec: fx.rec, kind: k}
}

// hedgeSeed is cluster.Router's own hedge-delay rule (shard p95
// clamped to [2 ms, 500 ms], immediate on a demoted shard, no opinion
// before the first observation) computed from Router.Health().
func (fx *fixture) hedgeSeed(shard int) func() time.Duration {
	return func() time.Duration {
		h := fx.router.Health()[shard]
		if h.Demoted {
			return 0
		}
		if h.LatencyP95 <= 0 {
			return -1
		}
		d := time.Duration(h.LatencyP95 * float64(time.Second))
		return min(max(d, 2*time.Millisecond), 500*time.Millisecond)
	}
}

// boot opens (or reopens) the durable store in dir and serves it the
// way cmd/zerberd does with -data-dir: default store options, one
// registry across store and server, the 64 MiB result cache.
func (fx *fixture) boot(dir string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := &node{dir: dir, reg: obs.NewRegistry(), served: make(chan error, 1)}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	var err error
	n.durable, err = store.OpenDurable(dir, store.Options{
		SnapshotEvery:     fx.snapshotEvery,
		GroupCommitWindow: store.DefaultCommitWindow,
		Logf:              func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) },
		Obs:               n.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	backend := store.Backend(n.durable)
	trace := fx.rec != nil
	if trace {
		n.trace = &serverTrace{rec: fx.rec, walPath: filepath.Join(dir, "wal.zwal")}
		backend = tracedBackend{Backend: n.durable, t: n.trace}
	}
	n.srv = server.NewWithBackend(fx.secret, 24*time.Hour, backend)
	n.srv.SetLogger(logger)
	n.srv.SetObs(n.reg)
	n.srv.SetCache(cache.New(cacheBytes))
	groups := fx.sys.Corpus.Groups
	for i := 0; i < fx.wl.readers; i++ {
		n.srv.RegisterUser(readerName(i), readerGroups(i, groups)...)
	}
	handler := n.srv.Handler()
	if trace {
		handler = n.trace.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Close()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.http = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.served <- n.http.Serve(ln) }()
	fx.nodes = append(fx.nodes, n)
	return n, nil
}

// stop shuts the node's listener and server down and closes its
// store. The data directory stays.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		n.http.Close()
	}
	if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return n.srv.Close()
}

// close stops every server and drops the client connection pool. The
// caller removes the data directories.
func (fx *fixture) close() error {
	var first error
	for _, n := range fx.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	fx.nodes = nil
	fx.pool.CloseIdleConnections()
	return first
}

// sealDoc builds a document's posting elements the way
// client.IndexDocument does — sorted terms, NormTF score, published
// RSTF, sealed under the group key — but hands the batch back: a later
// remove must name the exact sealed bytes, which a randomised codec
// cannot re-derive.
func sealDoc(cl *client.Client, sys *zerberr.System, codec crypt.ElementCodec, d *corpus.Document) ([]server.InsertOp, error) {
	key, ok := sys.Keys[d.Group]
	if !ok {
		return nil, fmt.Errorf("no key for group %d", d.Group)
	}
	terms := make([]corpus.TermID, 0, len(d.TF))
	for t := range d.TF {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	ops := make([]server.InsertOp, 0, len(terms))
	for _, term := range terms {
		score := rank.NormTF(d.TF[term], d.Length)
		sealed, err := codec.Seal(crypt.Element{Doc: d.ID, Term: term, Score: score}, key)
		if err != nil {
			return nil, err
		}
		ops = append(ops, server.InsertOp{
			List:    cl.ListFor(term),
			Element: server.StoredElement{Sealed: sealed, TRS: sys.Store.TRS(term, d.ID, score), Group: d.Group},
		})
	}
	return ops, nil
}

// nonces is a seeded nonce source for crypt.GCMCodec. The server
// orders elements of equal TRS by their sealed bytes, so with the
// codec's default crypto/rand nonces the same seed would rank ties
// differently from run to run, and a search's rounds and bytes would
// not repeat.
func nonces(seed, stream uint64) io.Reader {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], seed)
	binary.LittleEndian.PutUint64(key[8:], stream)
	return rand.NewChaCha8(key)
}

// newClient logs a protocol client in over the fixture's top
// transport. keys limits it to the groups the user holds.
func (fx *fixture) newClient(ctx context.Context, user string, groups []int, codec crypt.ElementCodec) (*client.Client, error) {
	keys := make(map[int]crypt.GroupKey, len(groups))
	for _, g := range groups {
		keys[g] = fx.sys.Keys[g]
	}
	cl, err := client.New(fx.top, client.Config{
		Plan:            fx.sys.Plan,
		Store:           fx.sys.Store,
		Codec:           codec,
		Keys:            keys,
		InitialResponse: initialResponse,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Login(ctx, user); err != nil {
		return nil, fmt.Errorf("login %s: %w", user, err)
	}
	return cl, nil
}

// tokens logs the writer in and returns its token per group.
func (fx *fixture) tokens(ctx context.Context) (map[int]crypt.Token, error) {
	toks, err := fx.top.Login(ctx, writer)
	if err != nil {
		return nil, err
	}
	byGroup := make(map[int]crypt.Token, len(toks))
	for _, t := range toks {
		byGroup[t.Group] = t
	}
	return byGroup, nil
}

// load seals the whole corpus and uploads it through the protocol in
// batches of server.MaxBatchOps per group.
func (fx *fixture) load(ctx context.Context) error {
	codec := crypt.GCMCodec{Rand: nonces(corpusSeed, 0)}
	cl, err := fx.newClient(ctx, writer, fx.sys.AllGroups(), codec)
	if err != nil {
		return err
	}
	toks, err := fx.tokens(ctx)
	if err != nil {
		return err
	}
	byGroup := make(map[int][]server.InsertOp)
	for _, d := range fx.sys.Corpus.Docs {
		if d.Length == 0 {
			continue
		}
		ops, err := sealDoc(cl, fx.sys, codec, d)
		if err != nil {
			return err
		}
		byGroup[d.Group] = append(byGroup[d.Group], ops...)
	}
	for g := 0; g < fx.sys.Corpus.Groups; g++ {
		ops := byGroup[g]
		for start := 0; start < len(ops); start += server.MaxBatchOps {
			end := min(start+server.MaxBatchOps, len(ops))
			if err := fx.top.InsertBatch(ctx, toks[g], ops[start:end]); err != nil {
				return fmt.Errorf("group %d ops %d-%d: %w", g, start, end-1, err)
			}
		}
		fx.elements += len(ops)
	}
	return nil
}

// restart closes every store and serves it again from its data
// directory behind a fresh server and listener — what a restarted
// zerberd cluster looks like to its clients. Stores are closed without
// a final snapshot, so recovery has a WAL tail to replay.
func (fx *fixture) restart() error {
	if err := fx.close(); err != nil {
		return err
	}
	return fx.serve()
}
