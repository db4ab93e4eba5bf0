package main

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/index"
	"zerberr/internal/rank"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/workload"
)

// oracle answers a search from an ordinary plaintext index of the
// same corpus: per-term top-k restricted to the reader's groups,
// summed per document, cut to k — Section 3.2's scoring computed
// without any of the confidential machinery.
type oracle struct {
	ix    *index.Index
	c     *corpus.Corpus
	store *rstf.Store
}

// search returns the expected answer and whether the protocol, in its
// default non-strict mode, guarantees exactly it. The client stops
// scanning a term's merged list once the transformed score (TRS) of
// what it fetched falls below that of its k-th match, so the per-term
// cut is the true top-k exactly when the (k+1)-th visible posting's
// TRS is strictly below the k-th's. It is not when the two tie — equal
// scores, or a flat stretch of the RSTF — because the server orders
// equal TRS by sealed bytes, opaque on purpose; and it is not for a
// term the RSTF sample never saw, whose TRS is pseudo-random.
func (o oracle) search(terms []corpus.TermID, groups map[int]bool, k int) (want []rank.Result, exact bool) {
	acc := make(map[corpus.DocID]float64)
	seen := make(map[corpus.TermID]bool, len(terms))
	exact = true
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		top := make([]rank.Result, 0, k)
		for _, p := range o.ix.Postings(t) { // sorted by descending score
			if !groups[o.c.Doc(p.Doc).Group] {
				continue
			}
			if len(top) == k {
				last := top[k-1]
				if !o.store.Has(t) || o.store.TRS(t, p.Doc, p.NormTF()) >= o.store.TRS(t, last.Doc, last.Score) {
					exact = false
				}
				break
			}
			top = append(top, rank.Result{Doc: p.Doc, Score: p.NormTF()})
		}
		rank.Accumulate(acc, top)
	}
	return rank.TopK(acc, k), exact
}

// agrees judges one answer. Where the protocol guarantees the exact
// answer, the score sequences must match (documents may differ only
// inside groups of tied scores). Elsewhere the answer must still be
// well-formed: as many results as the oracle's, in rank order.
func (o oracle) agrees(got []rank.Result, terms []corpus.TermID, groups map[int]bool) (ok, exact bool) {
	want, exact := o.search(terms, groups, topK)
	if len(got) != len(want) {
		return false, exact
	}
	for i := range got {
		switch {
		case exact && math.Abs(got[i].Score-want[i].Score) > 1e-9,
			!exact && i > 0 && got[i].Score > got[i-1].Score:
			return false, exact
		}
	}
	return true, exact
}

// reader is one logged-in identity of a worker.
type reader struct {
	cl     *client.Client
	groups map[int]bool
}

// answered is a search kept for checking after the clock stops.
type answered struct {
	op  workload.Op
	got []rank.Result
}

// worker is one closed-loop client: it owns the operations of the
// simulated users that hash to it, so one user's insert always
// precedes the remove of the same document, and issues the next only
// after the previous one returned.
type worker struct {
	fx      *fixture
	id, of  int
	readers []reader
	tokens  map[int]crypt.Token
	sealer  crypt.ElementCodec
	codec   *tracedCodec // the sealer's tracing wrapper; nil in an untraced run
	next    func() (workload.Op, bool)
	stop    func()
	pending workload.Op // read from the stream but not yet due
	held    bool
	start   time.Time // of the running phase
	// traceFrom is the first stream position a traced run traces: the
	// warm-up before it is not what the per-layer figures describe.
	traceFrom uint64

	// docSeals remembers the sealed bytes each streamed document was
	// inserted with, which its remove must name.
	docSeals map[corpus.DocID][]server.InsertOp

	tally
}

// done is one successful operation of a phase.
type done struct {
	at     time.Duration // completion, since the phase started
	ms     float64       // latency
	search bool          // else a write
	traced bool
}

// tally is what one phase of one worker produced.
type tally struct {
	attempted, failed int
	done              []done
	bytes, rounds     int // summed over successful searches, from QueryStats
	elements, results int
	kept              []answered
	firstErr          error
	wall              time.Duration
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// newWorkers logs in `of` workers, each with one client per reader
// identity, and positions each on its own copy of the operation
// stream.
func newWorkers(ctx context.Context, fx *fixture, cfg config, of int, traceFrom uint64) ([]*worker, error) {
	wl := fx.wl
	scfg := workload.StreamConfig{SearchFrac: wl.search, InsertFrac: wl.insert, RemoveFrac: wl.remove}
	workers := make([]*worker, of)
	for i := range workers {
		w := &worker{fx: fx, id: i, of: of, traceFrom: traceFrom, docSeals: make(map[corpus.DocID][]server.InsertOp)}
		var codec crypt.ElementCodec = crypt.GCMCodec{Rand: nonces(cfg.seed, uint64(1+i))}
		w.sealer = codec
		if fx.rec != nil {
			w.codec = &tracedCodec{ElementCodec: codec, rec: fx.rec}
			codec, w.sealer = w.codec, w.codec
		}
		for r := 0; r < wl.readers; r++ {
			groups := readerGroups(r, fx.sys.Corpus.Groups)
			cl, err := fx.newClient(ctx, readerName(r), groups, codec)
			if err != nil {
				return nil, err
			}
			set := make(map[int]bool, len(groups))
			for _, g := range groups {
				set[g] = true
			}
			w.readers = append(w.readers, reader{cl, set})
		}
		var err error
		if w.tokens, err = fx.tokens(ctx); err != nil {
			return nil, err
		}
		w.next, w.stop = iter.Pull(workload.Stream(fx.sys.Corpus, scfg, cfg.seed))
		workers[i] = w
	}
	return workers, nil
}

// take returns the worker's next own operation with Seq below limit,
// or false once the stream has reached it.
func (w *worker) take(limit uint64) (workload.Op, bool) {
	for {
		if !w.held {
			op, ok := w.next()
			if !ok {
				return workload.Op{}, false
			}
			w.pending, w.held = op, true
		}
		if w.pending.Seq >= limit {
			return workload.Op{}, false
		}
		w.held = false
		if int(w.pending.User%uint64(w.of)) == w.id {
			return w.pending, true
		}
	}
}

// phase drives every worker through its operations with Seq in
// [.., limit) until the deadline (zero = none) and returns their
// tallies and the wall time from the common start to the last
// worker's finish.
func phase(ctx context.Context, workers []*worker, limit uint64, deadline time.Duration, check func(*worker, workload.Op, []rank.Result) bool) ([]tally, time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		w.tally = tally{}
		w.start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (deadline == 0 || time.Since(start) < deadline) {
				op, ok := w.take(limit)
				if !ok {
					break
				}
				w.execute(ctx, op, check)
			}
			w.wall = time.Since(start)
		}()
	}
	wg.Wait()
	out := make([]tally, len(workers))
	var wall time.Duration
	for i, w := range workers {
		out[i] = w.tally
		wall = max(wall, w.wall)
	}
	return out, wall
}

// execute runs one streamed operation and folds its outcome into the
// worker's tally. check, when set, judges a search's answer on the
// spot (warm-up); otherwise every 16th search is kept for later.
func (w *worker) execute(ctx context.Context, op workload.Op, check func(*worker, workload.Op, []rank.Result) bool) {
	w.attempted++
	isSearch := op.Kind == workload.OpSearch
	// A traced run traces every other measured operation: the untraced
	// half is the same stream through the same warm caches, which is
	// what the tracing overhead is measured against. "Every other" is
	// by bits 0 and 4 of the stream position, so that the searches
	// proved every 16th position fall on both sides.
	var root ref
	finish := untraced
	if w.codec != nil && op.Seq >= w.traceFrom && (op.Seq^op.Seq>>4)&1 == 0 {
		k := kClientWrite
		if isSearch {
			k = kClientSearch
		}
		root, finish = w.fx.rec.open(ref{}, k)
		ctx = context.WithValue(ctx, refKey{}, root)
		w.codec.cur.Store(root.pack())
		defer w.codec.cur.Store(0)
	}
	var (
		res   []rank.Result
		stats client.QueryStats
		err   error
	)
	t0 := time.Now()
	switch op.Kind {
	case workload.OpSearch:
		var opts []client.SearchOption
		if every := w.fx.wl.proofEvery; every > 0 && op.Seq%every == 0 {
			opts = append(opts, client.WithProof())
		}
		res, stats, err = w.readers[w.readerOf(op)].cl.Search(ctx, op.Terms, topK, opts...)
	case workload.OpInsert:
		err = w.insert(ctx, op.Doc)
	case workload.OpRemove:
		err = w.remove(ctx, op.Doc)
	}
	ms := float64(time.Since(t0)) / 1e6
	finish()
	if err == nil && isSearch && check != nil && !check(w, op, res) {
		err = errors.New("answer differs from the plaintext oracle")
	}
	if err != nil {
		if ctx.Err() == nil { // else the run is being torn down, and says so itself
			w.fail(fmt.Errorf("%s %d: %w", op.Kind, op.Seq, err))
		}
		return
	}
	w.done = append(w.done, done{time.Since(w.start), ms, isSearch, root.id != 0})
	if isSearch {
		if check == nil && op.Seq%16 == 0 {
			w.kept = append(w.kept, answered{op, res})
		}
		w.bytes += stats.Bytes
		w.rounds += stats.Rounds
		w.elements += stats.Elements
		w.results += len(res)
	}
}

// insert seals one streamed document and uploads it as one batch.
func (w *worker) insert(ctx context.Context, d *corpus.Document) error {
	ops, err := sealDoc(w.readers[0].cl, w.fx.sys, w.sealer, d)
	if err != nil {
		return err
	}
	if err := w.fx.top.InsertBatch(ctx, w.tokens[d.Group], ops); err != nil {
		return err
	}
	w.docSeals[d.ID] = ops
	return nil
}

// remove deletes a document this worker inserted earlier, naming the
// sealed bytes it was inserted with.
func (w *worker) remove(ctx context.Context, d *corpus.Document) error {
	ins, ok := w.docSeals[d.ID]
	if !ok {
		return fmt.Errorf("document %d is not in the index: its insert failed", d.ID)
	}
	delete(w.docSeals, d.ID)
	rops := make([]server.RemoveOp, len(ins))
	for i, o := range ins {
		rops[i] = server.RemoveOp{List: o.List, Sealed: o.Element.Sealed}
	}
	return w.fx.top.RemoveBatch(ctx, w.tokens[d.Group], rops)
}

// readerOf picks the identity an operation's user searches as.
func (w *worker) readerOf(op workload.Op) int {
	return int(op.User / uint64(w.of) % uint64(len(w.readers)))
}
