package zerberr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/index"
	"zerberr/internal/rstf"
	"zerberr/internal/server"
	"zerberr/internal/zerber"
)

// Config parameterizes Setup.
type Config struct {
	// R is the confidentiality parameter of Definition 1/2: the merge
	// plan guarantees Σ p_t ≥ 1/R per merged list. Zero means 32.
	R float64
	// MaxLists optionally bounds the number of merged lists (the
	// paper's evaluation indexes use 32K); zero means unbounded (BFM
	// closes lists as soon as they reach 1/R).
	MaxLists int
	// SampleFrac is the fraction of documents sampled for RSTF
	// calibration (paper: 0.30); ControlFrac the fraction of that
	// sample held out as the σ cross-validation control set (paper:
	// about one third). Zeroes mean 0.30 and 0.33.
	SampleFrac, ControlFrac float64
	// Codec seals posting elements; nil means crypt.GCMCodec{}.
	Codec crypt.ElementCodec
	// InitialResponse is the floor b under every first window
	// (Section 6.4; zero means 10). A client sizes its first request
	// to a merged list from the merge plan and never below b;
	// client.WithInitialResponse pins it to exactly b.
	InitialResponse int
	// Seed drives every random choice deterministically.
	Seed uint64
	// TokenTTL bounds authentication token lifetime (zero: one hour).
	TokenTTL time.Duration
	// SkipBaseline skips building the plaintext reference index
	// (saves memory when only the confidential path is needed).
	SkipBaseline bool
	// IdentityStore replaces the trained RSTF store with the identity
	// transform (raw relevance scores visible to the server) — the
	// insecure Sections 3.3-3.4 baseline used by the attack
	// experiments. Never enable it in a real deployment.
	IdentityStore bool
	// RandomMerge replaces BFM with random term merging — the ablation
	// baseline that satisfies Definition 2 but leaks through follow-up
	// request counts (Section 5.2's warning).
	RandomMerge bool
	// TRSJitter, when positive, adds deterministic per-element noise of
	// this width to every TRS — the countermeasure to the
	// shared-score-atom fingerprint documented in EXPERIMENTS.md
	// (Ext-B). To be effective it must exceed the typical per-term TRS
	// gap (about 1/df of the terms to protect), which trades local
	// rank swaps near the top-k boundary for the closed channel;
	// 0.01-0.05 works for mid-frequency terms. An extension beyond the
	// paper.
	TRSJitter float64
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{R: 32, SampleFrac: 0.30, ControlFrac: 0.33, Seed: 1}
}

// System is a fully initialized Zerber+R deployment over one corpus:
// the offline pre-computing phase's artifacts plus a running
// (in-process) index server. It is the façade the examples, CLI and
// experiments build on.
type System struct {
	Corpus *corpus.Corpus
	Split  corpus.Split
	Plan   *zerber.MergePlan
	Store  *rstf.Store
	Server *server.Server
	// Baseline is the ordinary (non-confidential) inverted index over
	// the same corpus, used for comparison; nil if SkipBaseline.
	Baseline *index.Index
	// Keys holds one key per collaboration group.
	Keys map[int]crypt.GroupKey

	cfg Config
}

// Setup runs the offline pre-computing phase of Section 5 over the
// corpus: sample split, per-term RSTF training with σ
// cross-validation, r-confidential BFM merge plan, group key
// provisioning and server construction. It does not index any
// documents; call IndexAll or index selectively through clients.
func Setup(c *corpus.Corpus, cfg Config) (*System, error) {
	if c == nil || c.NumDocs() == 0 {
		return nil, errors.New("zerberr: empty corpus")
	}
	if cfg.R == 0 {
		cfg.R = 32
	}
	if cfg.R <= 1 {
		return nil, fmt.Errorf("zerberr: r must exceed 1, got %v", cfg.R)
	}
	if cfg.SampleFrac <= 0 {
		cfg.SampleFrac = 0.30
	}
	if cfg.ControlFrac <= 0 {
		cfg.ControlFrac = 0.33
	}
	if cfg.Codec == nil {
		cfg.Codec = crypt.GCMCodec{}
	}
	if cfg.InitialResponse <= 0 {
		cfg.InitialResponse = 10
	}

	split := corpus.NewSplit(c, cfg.SampleFrac, cfg.ControlFrac, cfg.Seed)
	var store *rstf.Store
	if cfg.IdentityStore {
		store = rstf.NewIdentityStore()
	} else {
		store = rstf.TrainStore(
			corpus.TrainingScores(c, split.Train),
			corpus.TrainingScores(c, split.Control),
			rstf.StoreConfig{FallbackSeed: cfg.Seed, Jitter: cfg.TRSJitter},
		)
	}

	var plan *zerber.MergePlan
	var err error
	switch {
	case cfg.RandomMerge:
		plan, err = zerber.RandomMerge(zerber.FromCorpus(c), cfg.R, cfg.Seed)
	case cfg.MaxLists > 0:
		plan, err = zerber.BFMTarget(zerber.FromCorpus(c), cfg.R, cfg.MaxLists)
	default:
		plan, err = zerber.BFM(zerber.FromCorpus(c), cfg.R)
	}
	if err != nil {
		return nil, fmt.Errorf("zerberr: building merge plan: %w", err)
	}
	if err := plan.Verify(); err != nil {
		return nil, fmt.Errorf("zerberr: merge plan failed verification: %w", err)
	}

	keys := make(map[int]crypt.GroupKey, c.Groups)
	for g := 0; g < c.Groups; g++ {
		keys[g] = crypt.KeyFromPassphrase(fmt.Sprintf("zerberr/seed%d/group%d", cfg.Seed, g))
	}

	sys := &System{
		Corpus: c,
		Split:  split,
		Plan:   plan,
		Store:  store,
		Server: server.New([]byte(fmt.Sprintf("zerberr/server-secret/%d", cfg.Seed)), cfg.TokenTTL),
		Keys:   keys,
		cfg:    cfg,
	}
	if !cfg.SkipBaseline {
		sys.Baseline = index.Build(c)
	}
	return sys, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// AllGroups lists the corpus's group IDs.
func (s *System) AllGroups() []int {
	out := make([]int, s.Corpus.Groups)
	for g := range out {
		out[g] = g
	}
	return out
}

// NewClient registers the user for the given groups (empty means all
// groups), hands it the matching subset of group keys, and logs it in
// against the system's server. The server is in process, so login
// cannot block and no context parameter is taken; per-query contexts
// go to client.Search / SearchStream.
func (s *System) NewClient(user string, groups ...int) (*client.Client, error) {
	if len(groups) == 0 {
		groups = s.AllGroups()
	}
	keys := make(map[int]crypt.GroupKey, len(groups))
	for _, g := range groups {
		key, ok := s.Keys[g]
		if !ok {
			return nil, fmt.Errorf("zerberr: unknown group %d", g)
		}
		keys[g] = key
	}
	s.Server.RegisterUser(user, groups...)
	cl, err := client.New(client.Local{S: s.Server}, client.Config{
		Plan:            s.Plan,
		Store:           s.Store,
		Codec:           s.cfg.Codec,
		Keys:            keys,
		InitialResponse: s.cfg.InitialResponse,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Login(context.Background(), user); err != nil {
		return nil, err
	}
	return cl, nil
}

// IndexAll indexes every corpus document through a maximally
// privileged indexer client (the online insertion phase, run once per
// document owner in a real deployment).
func (s *System) IndexAll() error {
	indexer, err := s.NewClient("zerberr-indexer")
	if err != nil {
		return err
	}
	for _, d := range s.Corpus.Docs {
		if err := indexer.IndexDocument(context.Background(), d, d.Group); err != nil {
			return fmt.Errorf("zerberr: indexing doc %d: %w", d.ID, err)
		}
	}
	return nil
}
