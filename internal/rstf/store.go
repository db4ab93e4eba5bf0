package rstf

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"zerberr/internal/corpus"
)

// StoreConfig parameterizes Store training.
type StoreConfig struct {
	// Grid is the σ cross-validation grid; nil means DefaultSigmaGrid.
	Grid []float64
	// MinControl is the minimum number of control observations a term
	// needs for per-term σ cross-validation; below it DefaultSigma is
	// used. Zero means 10.
	MinControl int
	// FallbackSeed keys the deterministic pseudo-random TRS assigned
	// to terms absent from the training set (Section 5.1.1: "Terms
	// found later ... are assumed to be rare and can therefore be
	// assigned a random TRS").
	FallbackSeed uint64
	// Jitter, when positive, adds a deterministic per-element offset
	// uniform in (−Jitter/2, +Jitter/2) to every TRS. This closes the
	// shared-score-atom fingerprint channel the Ext-B attack
	// experiment uncovered (all elements sharing one score no longer
	// share one TRS) at the cost of order flips between scores whose
	// TRS images lie within Jitter of each other — to be effective it
	// must exceed the typical per-term TRS gap (~1/df), so local rank
	// swaps near the top-k boundary are the price. This is an
	// extension beyond the paper.
	Jitter float64
	// Parallelism bounds the training worker pool; zero means
	// runtime.GOMAXPROCS(0).
	Parallelism int
}

// Store holds the published per-term RSTFs created in the offline
// pre-computing phase of Section 5 plus the random-TRS fallback for
// unseen terms. A Store is immutable after TrainStore and safe for
// concurrent use.
type Store struct {
	terms        map[corpus.TermID]*RSTF
	fallbackSeed uint64
	jitter       float64
	// identity short-circuits TRS to the raw (clamped) score. It
	// models the insecure "ordered index with plain relevance scores"
	// of Sections 3.3-3.4, used as the attack baseline.
	identity bool
}

// NewIdentityStore returns a store whose TRS is the raw relevance
// score clamped to [0,1]: the no-RSTF baseline an adversary can
// exploit. It is used by the security experiments, never by a real
// deployment.
func NewIdentityStore() *Store {
	return &Store{terms: map[corpus.TermID]*RSTF{}, identity: true}
}

// Identity reports whether this store bypasses transformation.
func (s *Store) Identity() bool { return s.identity }

// TrainStore trains one RSTF per term appearing in trainScores, using
// controlScores for σ cross-validation where available. This is the
// index-initialization step: it runs once; afterwards inserts and
// updates are unlimited (Section 7, Related Work).
func TrainStore(trainScores, controlScores map[corpus.TermID][]float64, cfg StoreConfig) *Store {
	if cfg.MinControl == 0 {
		cfg.MinControl = 10
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Deterministic term order for reproducible iteration; results are
	// per-term independent so scheduling cannot change them.
	ids := make([]corpus.TermID, 0, len(trainScores))
	for t := range trainScores {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make(map[corpus.TermID]*RSTF, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan corpus.TermID)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				f, err := Train(trainScores[t], controlScores[t], cfg.Grid, cfg.MinControl)
				if err != nil {
					continue // empty training sample: term stays on fallback
				}
				mu.Lock()
				out[t] = f
				mu.Unlock()
			}
		}()
	}
	for _, t := range ids {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return &Store{terms: out, fallbackSeed: cfg.FallbackSeed, jitter: cfg.Jitter}
}

// Has reports whether the term was seen in training.
func (s *Store) Has(t corpus.TermID) bool { _, ok := s.terms[t]; return ok }

// Get returns the term's RSTF, or nil if it was not trained.
func (s *Store) Get(t corpus.TermID) *RSTF { return s.terms[t] }

// Len returns the number of trained terms.
func (s *Store) Len() int { return len(s.terms) }

// Terms returns the trained term IDs in ascending order.
func (s *Store) Terms() []corpus.TermID {
	ids := make([]corpus.TermID, 0, len(s.terms))
	for t := range s.terms {
		ids = append(ids, t)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TRS computes the transformed relevance score for a posting element
// of term t in document doc with raw relevance score x. Trained terms
// go through their RSTF; unseen terms receive a deterministic
// pseudo-random TRS keyed by (seed, term, doc) so that re-indexing the
// same element yields the same TRS.
func (s *Store) TRS(t corpus.TermID, doc corpus.DocID, x float64) float64 {
	if s.identity {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	if f, ok := s.terms[t]; ok {
		v := f.Transform(x)
		if s.jitter > 0 {
			v += (s.fallbackTRS(t, doc) - 0.5) * s.jitter
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
		}
		return v
	}
	return s.fallbackTRS(t, doc)
}

// Jitter returns the configured per-element jitter width (0 = off).
func (s *Store) Jitter() float64 { return s.jitter }

// fallbackTRS maps (seed, term, doc) to a uniform value in [0,1).
func (s *Store) fallbackTRS(t corpus.TermID, doc corpus.DocID) float64 {
	h := fnv.New64a()
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[0:8], s.fallbackSeed)
	binary.BigEndian.PutUint32(buf[8:12], uint32(t))
	binary.BigEndian.PutUint32(buf[12:16], uint32(doc))
	binary.BigEndian.PutUint32(buf[16:20], 0x5a52) // domain tag
	h.Write(buf[:])
	// 53 mantissa bits -> uniform in [0,1)
	return float64(h.Sum64()>>11) / float64(1<<53)
}
