package soak

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
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

// Config is what varies between soak runs: where the binary and the
// work directory are, how long the run lasts and its seed. Everything
// else is one fixed shape (the constants below).
type Config struct {
	// ZerberdPath is the zerberd binary to boot (required).
	ZerberdPath string
	// Dir is the working directory for secrets, data dirs and process
	// logs; empty creates a temporary one.
	Dir string
	// Duration bounds the run's wall clock (0 = 60s). The faults come
	// every min(5s, Duration/4), so even a short run sees a kill and a
	// migration.
	Duration time.Duration
	// Seed drives corpus generation and the op stream (0 = 1).
	Seed uint64
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

// The soak's fixed shape. Two shards of two members is the smallest
// cluster that exercises both routing across shards and failover
// within one.
const (
	shards   = 2  // routing slots
	replicas = 2  // members per slot, primary included
	workers  = 4  // concurrent load-generator clients
	topK     = 10 // k of every search

	// proofEvery asks every 16th search for a Merkle proof.
	proofEvery = 16
	// errorBudget is the tolerated fraction of failed operations:
	// faults make some failure inevitable (writes to a shard whose
	// primary is down fail until it restarts).
	errorBudget = 0.10

	// The corpus the cluster is bootstrapped with; the op stream is
	// workload.DefaultStreamConfig (a million zipfian users).
	corpusDocs  = 200
	corpusVocab = 3000

	// maxFaultEvery caps the pause between faults; a run shorter than
	// 20s spaces them Duration/4 apart.
	maxFaultEvery = 5 * time.Second
	// faultDowntime is how long a killed process stays down.
	faultDowntime = 300 * time.Millisecond
	// tokenTTL outlives any run, restarts and migrations included.
	tokenTTL = 24 * time.Hour
)

// soakUser is the registered cluster identity every worker logs in as
// (the millions of simulated users exist in the workload layer; the
// cluster sees one all-groups enterprise account, like the experiment
// harness's reader).
const soakUser = "soak"

// run carries one soak run's wiring and its counters.
type run struct {
	cfg        Config
	sys        *zerberr.System
	secretFile string
	secret     []byte

	router  *cluster.Router
	checker *epochChecker
	orc     *oracle
	shards  []*shardState
	toks    []crypt.Token // all-groups read tokens the identity check pages with

	// gate quiesces the workload: workers hold it shared per
	// operation, the identity check holds it exclusively so it
	// observes a cluster with no write in flight.
	gate sync.RWMutex

	searchLat *obs.Histogram // milliseconds
	writeLat  *obs.Histogram

	// mu guards rep, the one declaration of every counter the run
	// keeps; the epoch checker keeps its own two.
	mu  sync.Mutex
	rep Report
}

// count applies one update to the report's counters.
func (r *run) count(update func(*Report)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	update(&r.rep)
}

// maxSamples bounds the violation descriptions kept per class.
const maxSamples = 8

// addSample appends s unless the sample is full.
func addSample(samples []string, s string) []string {
	if len(samples) < maxSamples {
		samples = append(samples, s)
	}
	return samples
}

// countErr counts one failed operation of a class.
func (r *run) countErr(class string) {
	r.count(func(rep *Report) {
		rep.Errors++
		rep.ErrorsByKind[class]++
	})
}

// proofViolation records a proved search failing verification — an
// invariant break against an honest cluster, never budgeted away.
func (r *run) proofViolation(err error) {
	r.count(func(rep *Report) {
		rep.ProofViolations++
		rep.ProofSamples = addSample(rep.ProofSamples, err.Error())
	})
	r.cfg.Logf("PROOF VIOLATION: %v", err)
}

// Run executes one soak: boot the cluster, bootstrap the corpus, drive
// the op stream from the workers while the chaos loop injects faults,
// then return the report. Run fails (error, nil report) only on harness
// problems — invariant violations are reported, not errored, so a CI
// job can keep the report and then assert on it.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.ZerberdPath == "" {
		return nil, errors.New("soak: Config.ZerberdPath is required")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
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
	p.NumDocs = corpusDocs
	p.VocabSize = corpusVocab
	c := corpus.Generate(p, cfg.Seed)
	zcfg := zerberr.DefaultConfig()
	zcfg.Seed = cfg.Seed
	zcfg.SkipBaseline = true
	sys, err := zerberr.Setup(c, zcfg)
	if err != nil {
		return nil, fmt.Errorf("soak: setup: %w", err)
	}
	secretFile, secret, err := WriteSecret(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("soak: secret: %w", err)
	}

	r := &run{
		cfg:        cfg,
		sys:        sys,
		secretFile: secretFile,
		secret:     secret,
		orc:        newOracle(),
		shards:     make([]*shardState, shards),
		searchLat:  obs.NewHistogram(nil),
		writeLat:   obs.NewHistogram(nil),
		rep:        Report{ErrorsByKind: make(map[string]uint64)},
	}

	// Boot the shards×replicas zerberd processes and wire the router
	// over the replica sets.
	defer func() {
		for _, s := range r.shards {
			if s != nil {
				s.stopAll(cfg.Logf)
			}
		}
	}()
	transports := make([]client.Transport, shards)
	for i := range r.shards {
		s, err := r.bootShard(i, 0)
		if err != nil {
			return nil, err
		}
		r.shards[i] = s
		transports[i] = s.set
	}
	router, err := cluster.NewRouter(transports...)
	if err != nil {
		return nil, err
	}
	router.SetCache(cache.New(32 << 20))
	r.router = router
	r.checker = newEpochChecker(router)

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	if r.toks, err = r.checker.Login(runCtx, soakUser); err != nil {
		return nil, fmt.Errorf("soak: login: %w", err)
	}

	// Bootstrap: index the whole corpus through the cluster, recording
	// every acknowledged sealed element in the oracle.
	if err := r.bootstrap(runCtx); err != nil {
		return nil, fmt.Errorf("soak: bootstrap: %w", err)
	}
	cfg.Logf("soak: bootstrap done: %d docs sealed into the oracle in %s",
		sys.Corpus.NumDocs(), time.Since(start).Round(time.Millisecond))

	// Drive: the dispatcher fans the deterministic op stream out to
	// workers partitioned by simulated user (one user's ops stay
	// ordered); the chaos loop injects faults and runs quiesced
	// identity checks.
	var wg sync.WaitGroup
	chans := make([]chan workload.Op, workers)
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
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		r.chaos(runCtx)
	}()
	for op := range workload.Stream(sys.Corpus, workload.StreamConfig{}, cfg.Seed) {
		if runCtx.Err() != nil {
			break
		}
		select {
		case chans[int(op.User)%workers] <- op:
		case <-runCtx.Done():
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	cancel()
	<-chaosDone

	// Final quiesced identity check against the settled cluster.
	finalCtx, finalCancel := context.WithTimeout(context.Background(), 60*time.Second)
	r.identityCheck(finalCtx)
	finalCancel()

	return r.report(time.Since(start)), nil
}

// bootShard spawns one routing slot's member processes and builds the
// replica set over them.
func (r *run) bootShard(shard, gen int) (*shardState, error) {
	s := &shardState{gen: gen}
	mac := server.AdminMAC(r.secret)
	for m := 0; m < replicas; m++ {
		name := fmt.Sprintf("s%d-g%d-m%d", shard, gen, m)
		p, err := StartProc(ProcConfig{
			Binary:     r.cfg.ZerberdPath,
			Name:       name,
			DataDir:    filepath.Join(r.cfg.Dir, name),
			SecretFile: r.secretFile,
			Users:      []string{groupsSpec(soakUser, r.sys.Corpus.Groups)},
			Logf:       r.cfg.Logf,
		})
		if err != nil {
			s.stopAll(r.cfg.Logf)
			return nil, err
		}
		s.procs = append(s.procs, p)
		s.trans = append(s.trans, client.HTTP{
			BaseURL:  p.BaseURL(),
			Retry:    client.DefaultRetryPolicy(),
			AdminMAC: mac,
		})
	}
	set, err := replica.NewSet(s.trans[0], s.trans[1:]...)
	if err != nil {
		s.stopAll(r.cfg.Logf)
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

// insert uploads one sealed batch through the cluster and records its
// fate in the oracle: acknowledged on success; on failure each element
// is uncertain, because the batch (or part of it, mid-fault) may have
// landed.
func (r *run) insert(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	err := r.checker.InsertBatch(ctx, tok, ops)
	r.orc.inserted(ops, err == nil)
	return err
}

// bootstrap seals and uploads the whole corpus, batched per group.
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
			if err := r.insert(ctx, byGrp[g], ops[start:end]); err != nil {
				return fmt.Errorf("group %d ops %d-%d: %w", g, start, end-1, err)
			}
		}
	}
	return nil
}

// worker drains one op channel against its own client. Each op runs
// under the quiesce gate (shared), so the identity check can quiesce
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
		r.gate.RLock()
		r.execute(ctx, cl, byGrp, docSeals, op)
		r.gate.RUnlock()
	}
	return nil
}

// sinceMs is the time since t0 in milliseconds.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }

// execute runs one streamed op and folds the outcome into oracle and
// counters.
func (r *run) execute(ctx context.Context, cl *client.Client, byGrp map[int]crypt.Token, docSeals map[corpus.DocID][]server.InsertOp, op workload.Op) {
	r.count(func(rep *Report) { rep.Ops++ })
	switch op.Kind {
	case workload.OpSearch:
		var opts []client.SearchOption
		if op.Seq%proofEvery == 0 {
			opts = append(opts, client.WithProof())
			r.count(func(rep *Report) { rep.ProvedSearches++ })
		}
		t0 := time.Now()
		_, _, err := cl.Search(ctx, op.Terms, topK, opts...)
		r.searchLat.Observe(sinceMs(t0))
		switch {
		case err == nil:
			r.count(func(rep *Report) { rep.Searches++ })
		case errors.Is(err, client.ErrProofInvalid):
			r.proofViolation(err)
		case ctx.Err() != nil:
			// Shutdown, not a server failure.
		default:
			r.countErr("search")
		}
	case workload.OpInsert:
		// SealDocument, not IndexDocument: the oracle mirrors the
		// acknowledged sealed bytes, which randomized codecs cannot
		// re-derive.
		ops, err := cl.SealDocument(op.Doc, op.Doc.Group)
		if err != nil {
			r.countErr("seal")
			return
		}
		if len(ops) == 0 {
			return
		}
		t0 := time.Now()
		err = r.insert(ctx, byGrp[op.Doc.Group], ops)
		r.writeLat.Observe(sinceMs(t0))
		switch {
		case err == nil:
			r.count(func(rep *Report) { rep.Inserts++ })
			docSeals[op.Doc.ID] = ops
		case ctx.Err() == nil:
			// The document is never targeted by a remove: its elements
			// are uncertain.
			r.countErr("insert")
		}
	case workload.OpRemove:
		ins, ok := docSeals[op.Doc.ID]
		if !ok {
			// The matching insert failed; nothing certain to remove.
			r.count(func(rep *Report) { rep.RemovesSkipped++ })
			return
		}
		delete(docSeals, op.Doc.ID)
		rops := make([]server.RemoveOp, len(ins))
		for i, o := range ins {
			rops[i] = server.RemoveOp{List: o.List, Sealed: o.Element.Sealed}
		}
		t0 := time.Now()
		err := r.checker.RemoveBatch(ctx, byGrp[op.Doc.Group], rops)
		r.writeLat.Observe(sinceMs(t0))
		r.orc.removed(rops, err == nil)
		switch {
		case err == nil:
			r.count(func(rep *Report) { rep.Removes++ })
		case ctx.Err() == nil:
			r.countErr("remove")
		}
	}
}
