package soak

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	zerberr "zerberr"
	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/workload"
)

// Config parameterizes one soak run.
type Config struct {
	// ZerberdPath is the zerberd binary to boot (required).
	ZerberdPath string
	// Dir is the working directory for secrets, data dirs and process
	// logs; empty creates a temporary one.
	Dir string

	// Shards is the routing-slot count; Replicas the member count per
	// slot (primary included), so Shards×Replicas processes boot.
	Shards   int
	Replicas int

	// Workers is the number of concurrent load-generator clients.
	Workers int
	// Duration bounds the run's wall clock.
	Duration time.Duration
	// MaxOps optionally bounds the op count (0 = duration-bound only).
	MaxOps uint64

	// Seed drives corpus generation and the op stream.
	Seed uint64
	// CorpusDocs / CorpusVocab size the seed corpus the cluster is
	// bootstrapped with (zeroes mean 300 docs / 3000 terms).
	CorpusDocs, CorpusVocab int

	// Stream shapes the op mix; zero-value fields take
	// workload.DefaultStreamConfig (a million zipfian users,
	// 0.90/0.07/0.03 search/insert/remove).
	Stream workload.StreamConfig
	// TopK is the k of issued searches (0 = 10).
	TopK int
	// ProofEvery asks every Nth search for a Merkle proof
	// (client.WithProof); 0 disables proved searches.
	ProofEvery uint64

	// FaultEvery is the pause between fault injections; 0 disables the
	// chaos loop (pure soak). FaultDowntime is how long a killed
	// process stays down before restart (0 = 500ms).
	FaultEvery    time.Duration
	FaultDowntime time.Duration

	// ErrorBudget is the tolerated fraction of failed operations
	// (faults make some failure inevitable: writes to a shard whose
	// primary is down fail until restart). Zero means 0.10.
	ErrorBudget float64

	// Out receives the one-line JSON report (nil = no report output).
	Out io.Writer
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

// DefaultConfig returns laptop-friendly soak defaults.
func DefaultConfig() Config {
	return Config{
		Shards:        2,
		Replicas:      2,
		Workers:       4,
		Duration:      60 * time.Second,
		Seed:          1,
		TopK:          10,
		ProofEvery:    16,
		FaultEvery:    5 * time.Second,
		FaultDowntime: 500 * time.Millisecond,
		ErrorBudget:   0.10,
	}
}

// soakUser is the registered cluster identity every worker logs in as
// (the millions of simulated users exist in the workload layer; the
// cluster sees one all-groups enterprise account, like the experiment
// harness's reader).
const soakUser = "soak"

// withDefaults normalizes the config.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Shards <= 0 {
		cfg.Shards = def.Shards
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = def.Replicas
	}
	if cfg.Workers <= 0 {
		cfg.Workers = def.Workers
	}
	if cfg.Duration <= 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.CorpusDocs <= 0 {
		cfg.CorpusDocs = 300
	}
	if cfg.CorpusVocab <= 0 {
		cfg.CorpusVocab = 3000
	}
	if cfg.TopK <= 0 {
		cfg.TopK = def.TopK
	}
	if cfg.FaultDowntime <= 0 {
		cfg.FaultDowntime = def.FaultDowntime
	}
	if cfg.ErrorBudget <= 0 {
		cfg.ErrorBudget = def.ErrorBudget
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return cfg
}

// run carries one soak run's wiring.
type run struct {
	cfg    Config
	sys    *zerberr.System
	secret []byte

	router  *cluster.Router
	checker *epochChecker
	orc     *oracle
	ch      *chaos

	searchLat *obs.Histogram // milliseconds
	writeLat  *obs.Histogram

	ops            atomic.Uint64
	searches       atomic.Uint64
	proved         atomic.Uint64
	inserts        atomic.Uint64
	removes        atomic.Uint64
	removesSkipped atomic.Uint64

	errTotal        atomic.Uint64
	proofViolations atomic.Uint64

	emu      sync.Mutex
	byClass  map[string]uint64
	psamples []string
}

// countErr classifies one failed operation.
func (r *run) countErr(class string, err error) {
	r.errTotal.Add(1)
	r.emu.Lock()
	r.byClass[class]++
	r.emu.Unlock()
}

// proofViolation records a proved search failing verification — an
// invariant break against an honest cluster, never budgeted away.
func (r *run) proofViolation(err error) {
	r.proofViolations.Add(1)
	r.emu.Lock()
	if len(r.psamples) < 8 {
		r.psamples = append(r.psamples, err.Error())
	}
	r.emu.Unlock()
	r.cfg.Logf("PROOF VIOLATION: %v", err)
}

// Run executes one soak: boot cluster, bootstrap the corpus, drive
// the op stream from Workers clients while the chaos loop injects
// faults, then emit the report. The returned Report is also written
// to cfg.Out as one JSON line. Run fails (error, nil report) only on
// harness problems — invariant violations are reported, not errored,
// so a CI job can upload the report and then assert on it.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.ZerberdPath == "" {
		return nil, errors.New("soak: Config.ZerberdPath is required")
	}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "zerber-soak-*")
		if err != nil {
			return nil, err
		}
		cfg.Dir = dir
	}
	start := time.Now()

	// Offline phase: corpus, merge plan, RSTF store, group keys. The
	// in-process server Setup builds is unused — the cluster of real
	// zerberd processes is the system under test.
	p := corpus.ProfileStudIP()
	p.NumDocs = cfg.CorpusDocs
	p.VocabSize = cfg.CorpusVocab
	c := corpus.Generate(p, cfg.Seed)
	zcfg := zerberr.DefaultConfig()
	zcfg.Seed = cfg.Seed
	zcfg.SkipBaseline = true
	sys, err := zerberr.Setup(c, zcfg)
	if err != nil {
		return nil, fmt.Errorf("soak: setup: %w", err)
	}

	secretFile, err := WriteSecret(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("soak: secret: %w", err)
	}
	secret, err := Secret(secretFile)
	if err != nil {
		return nil, err
	}

	r := &run{
		cfg:       cfg,
		sys:       sys,
		secret:    secret,
		orc:       newOracle(),
		searchLat: obs.NewHistogram(nil),
		writeLat:  obs.NewHistogram(nil),
		byClass:   make(map[string]uint64),
	}

	// Boot Shards×Replicas zerberd processes and wire the router over
	// the replica sets.
	boot := func(shard, gen, members int) (*shardState, error) {
		return bootShard(cfg, secretFile, secret, sys.Corpus.Groups, shard, gen, members)
	}
	shards := make([]*shardState, cfg.Shards)
	transports := make([]client.Transport, cfg.Shards)
	for i := range shards {
		s, err := boot(i, 0, cfg.Replicas)
		if err != nil {
			for _, prev := range shards[:i] {
				prev.stopAll(cfg.Logf)
			}
			return nil, err
		}
		shards[i] = s
		transports[i] = s.set
	}
	defer func() {
		for _, s := range shards {
			s.stopAll(cfg.Logf)
		}
	}()
	router, err := cluster.NewRouter(transports...)
	if err != nil {
		return nil, err
	}
	router.SetCache(cache.New(32 << 20))
	r.router = router
	r.checker = newEpochChecker(router)

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	toks, err := r.checker.Login(runCtx, soakUser)
	if err != nil {
		return nil, fmt.Errorf("soak: login: %w", err)
	}
	r.ch = &chaos{
		cfg:     cfg,
		router:  router,
		checker: r.checker,
		orc:     r.orc,
		shards:  shards,
		toks:    toks,
		logf:    cfg.Logf,
		boot:    boot,
	}

	// Bootstrap: index the whole corpus through the cluster, recording
	// every acknowledged sealed element in the oracle.
	if err := r.bootstrap(runCtx); err != nil {
		return nil, fmt.Errorf("soak: bootstrap: %w", err)
	}
	cfg.Logf("soak: bootstrap done: %d docs sealed into the oracle in %s",
		sys.Corpus.NumDocs(), time.Since(start).Round(time.Millisecond))

	// Drive: dispatcher fans the deterministic op stream to workers
	// partitioned by simulated user (one user's ops stay ordered);
	// chaos injects faults and runs quiesced identity checks.
	var wg sync.WaitGroup
	chans := make([]chan workload.Op, cfg.Workers)
	for w := range chans {
		chans[w] = make(chan workload.Op, 64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := r.worker(runCtx, chans[w]); err != nil && runCtx.Err() == nil {
				cfg.Logf("soak: worker %d: %v", w, err)
			}
		}(w)
	}
	var chaosWG sync.WaitGroup
	if cfg.FaultEvery > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			r.ch.run(runCtx)
		}()
	}
	streamCfg := cfg.Stream
	issued := uint64(0)
	for op := range workload.Stream(sys.Corpus, streamCfg, cfg.Seed) {
		if runCtx.Err() != nil {
			break
		}
		if cfg.MaxOps > 0 && issued >= cfg.MaxOps {
			break
		}
		select {
		case chans[int(op.User)%cfg.Workers] <- op:
			issued++
		case <-runCtx.Done():
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	cancel()
	chaosWG.Wait()

	// Final quiesced identity check against the settled cluster.
	finalCtx, finalCancel := context.WithTimeout(context.Background(), 60*time.Second)
	r.ch.identityCheck(finalCtx)
	finalCancel()

	rep := r.report(time.Since(start))
	if cfg.Out != nil {
		fmt.Fprintln(cfg.Out, rep.JSON())
	}
	return rep, nil
}

// bootShard spawns one routing slot's member processes and builds the
// replica set over them.
func bootShard(cfg Config, secretFile string, secret []byte, groups, shard, gen, members int) (*shardState, error) {
	s := &shardState{gen: gen}
	mac := server.AdminMAC(secret)
	for m := 0; m < members; m++ {
		name := fmt.Sprintf("s%d-g%d-m%d", shard, gen, m)
		p, err := StartProc(ProcConfig{
			Binary:     cfg.ZerberdPath,
			Name:       name,
			DataDir:    filepath.Join(cfg.Dir, name),
			SecretFile: secretFile,
			TokenTTL:   24 * time.Hour,
			Users:      []string{groupsSpec(soakUser, groups)},
			Logf:       cfg.Logf,
		})
		if err != nil {
			s.stopAll(cfg.Logf)
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.trans = append(s.trans, client.HTTP{
			BaseURL:  p.BaseURL(),
			Retry:    client.DefaultRetryPolicy(),
			AdminMAC: mac,
		})
	}
	ts := make([]client.Transport, len(s.trans))
	for i, t := range s.trans {
		ts[i] = t
	}
	set, err := replica.NewSet(ts[0], ts[1:]...)
	if err != nil {
		s.stopAll(cfg.Logf)
		return nil, err
	}
	s.set = set
	return s, nil
}

// newClient builds one worker's search client over the epoch-checked
// cluster transport and logs it in.
func (r *run) newClient(ctx context.Context) (*client.Client, map[int]crypt.Token, error) {
	cl, err := client.New(r.checker, client.Config{
		Plan:  r.sys.Plan,
		Store: r.sys.Store,
		Codec: r.sys.Config().Codec,
		Keys:  r.sys.Keys,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := cl.Login(ctx, soakUser); err != nil {
		return nil, nil, err
	}
	toks, err := r.checker.Login(ctx, soakUser)
	if err != nil {
		return nil, nil, err
	}
	byGrp := make(map[int]crypt.Token, len(toks))
	for _, tok := range toks {
		byGrp[tok.Group] = tok
	}
	return cl, byGrp, nil
}

// bootstrap seals and uploads the whole corpus through the cluster,
// batched per group, and records every acknowledged element.
func (r *run) bootstrap(ctx context.Context) error {
	cl, byGrp, err := r.newClient(ctx)
	if err != nil {
		return err
	}
	byGroup := make(map[int][]server.InsertOp)
	for _, d := range r.sys.Corpus.Docs {
		if d.Length == 0 {
			continue
		}
		ops, err := cl.SealDocument(d, d.Group)
		if err != nil {
			return err
		}
		byGroup[d.Group] = append(byGroup[d.Group], ops...)
	}
	groups := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		ops := byGroup[g]
		for start := 0; start < len(ops); start += server.MaxBatchOps {
			end := min(start+server.MaxBatchOps, len(ops))
			if err := r.checker.InsertBatch(ctx, byGrp[g], ops[start:end]); err != nil {
				return fmt.Errorf("group %d ops %d-%d: %w", g, start, end-1, err)
			}
			for _, op := range ops[start:end] {
				r.orc.insertAcked(op.List, op.Element.Sealed)
			}
		}
	}
	return nil
}

// worker drains one op channel against its own client. Each op runs
// under the chaos gate (shared), so the identity check can quiesce
// the cluster by taking it exclusively.
func (r *run) worker(ctx context.Context, ops <-chan workload.Op) error {
	cl, byGrp, err := r.newClient(ctx)
	if err != nil {
		return err
	}
	// docSeals remembers the exact acknowledged sealed bytes per
	// streamed document, so a later OpRemove targets what the insert
	// really uploaded.
	docSeals := make(map[corpus.DocID][]server.InsertOp)
	for op := range ops {
		if ctx.Err() != nil {
			// Keep draining so the dispatcher never blocks on a full
			// channel during shutdown.
			continue
		}
		r.ch.gate.RLock()
		r.execute(ctx, cl, byGrp, docSeals, op)
		r.ch.gate.RUnlock()
	}
	return nil
}

// execute runs one streamed op and folds the outcome into oracle and
// counters.
func (r *run) execute(ctx context.Context, cl *client.Client, byGrp map[int]crypt.Token, docSeals map[corpus.DocID][]server.InsertOp, op workload.Op) {
	r.ops.Add(1)
	switch op.Kind {
	case workload.OpSearch:
		var opts []client.SearchOption
		proved := r.cfg.ProofEvery > 0 && op.Seq%r.cfg.ProofEvery == 0
		if proved {
			opts = append(opts, client.WithProof())
			r.proved.Add(1)
		}
		t0 := time.Now()
		_, _, err := cl.Search(ctx, op.Terms, r.cfg.TopK, opts...)
		r.searchLat.Observe(float64(time.Since(t0).Microseconds()) / 1000)
		switch {
		case err == nil:
			r.searches.Add(1)
		case errors.Is(err, client.ErrProofInvalid):
			r.proofViolation(err)
		case ctx.Err() != nil:
			// Shutdown, not a server failure.
		default:
			r.countErr("search", err)
		}
	case workload.OpInsert:
		// SealDocument, not IndexDocument: the oracle mirrors the
		// acknowledged sealed bytes, which randomized codecs cannot
		// re-derive.
		ops, err := cl.SealDocument(op.Doc, op.Doc.Group)
		if err != nil || len(ops) == 0 {
			if err != nil {
				r.countErr("seal", err)
			}
			return
		}
		t0 := time.Now()
		err = r.checker.InsertBatch(ctx, byGrp[op.Doc.Group], ops)
		r.writeLat.Observe(float64(time.Since(t0).Microseconds()) / 1000)
		if err == nil {
			r.inserts.Add(1)
			for _, o := range ops {
				r.orc.insertAcked(o.List, o.Element.Sealed)
			}
			docSeals[op.Doc.ID] = ops
			return
		}
		// Ambiguous: the batch (or part of it, mid-fault) may have
		// landed. Track every element as uncertain and never target
		// this document with a remove.
		for _, o := range ops {
			r.orc.insertFailed(o.List, o.Element.Sealed)
		}
		if ctx.Err() == nil {
			r.countErr("insert", err)
		}
	case workload.OpRemove:
		ins, ok := docSeals[op.Doc.ID]
		if !ok {
			// The matching insert failed (or predates MaxLiveDocsPerUser
			// eviction in a resumed stream); nothing certain to remove.
			r.removesSkipped.Add(1)
			return
		}
		delete(docSeals, op.Doc.ID)
		rops := make([]server.RemoveOp, len(ins))
		for i, o := range ins {
			rops[i] = server.RemoveOp{List: o.List, Sealed: o.Element.Sealed}
		}
		t0 := time.Now()
		err := r.checker.RemoveBatch(ctx, byGrp[op.Doc.Group], rops)
		r.writeLat.Observe(float64(time.Since(t0).Microseconds()) / 1000)
		if err == nil {
			r.removes.Add(1)
			for _, o := range rops {
				r.orc.removeAcked(o.List, o.Sealed)
			}
			return
		}
		for _, o := range rops {
			r.orc.removeFailed(o.List, o.Sealed)
		}
		if ctx.Err() == nil {
			r.countErr("remove", err)
		}
	}
}
