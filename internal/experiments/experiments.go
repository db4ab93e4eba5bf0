// Package experiments regenerates every evaluation artifact of the
// paper — Figures 4, 5, 7, 8, 9, 10, 11, 12, 13 and the Section 6.6
// bandwidth/throughput analysis — plus the extension experiments
// documented in DESIGN.md (multi-term accuracy, quantified attacks,
// ablations). Each experiment is a named Runner producing a Result
// that renders as an ASCII chart, a table and notes comparing the
// measured shape against what the paper reports.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/crypt"
	"zerberr/internal/plot"
	"zerberr/internal/stats"
	"zerberr/internal/workload"
)

// Result is the rendered outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Series []stats.Series
	// Headers/Rows hold an optional summary table.
	Headers []string
	Rows    [][]interface{}
	// Notes record paper-reported vs measured observations.
	Notes []string
	// ChartOpts controls rendering; zero value means defaults.
	ChartOpts plot.Options
}

// Render formats the result for a terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n\n", r.ID, r.Title)
	if len(r.Series) > 0 {
		b.WriteString(plot.Chart(r.Title, r.Series, r.ChartOpts))
		b.WriteByte('\n')
	}
	if len(r.Headers) > 0 {
		b.WriteString(plot.Table(r.Headers, r.Rows))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result's series as CSV.
func (r *Result) CSV() string { return plot.CSV(r.Series) }

// Runner executes one experiment against a shared environment.
type Runner func(e *Env) (*Result, error)

// Env lazily builds and caches the systems, workloads and replays the
// experiments share, so running the full suite sets everything up only
// once per collection profile.
type Env struct {
	// Scale multiplies corpus sizes (1 = laptop defaults; the
	// paper-sized collections are roughly 4× for Stud IP and 30× for
	// ODP).
	Scale float64
	// Seed drives all generation deterministically.
	Seed uint64
	// Quiet suppresses progress logging to Logf.
	Logf func(format string, args ...interface{})
	// Batched makes search-driving experiments batch every open list
	// into each round of their timed loops (client.Search's default)
	// instead of scheduling them serially (cmd/zerber-bench -batched).
	Batched bool

	mu      sync.Mutex
	systems map[string]*zerberr.System
	clients map[string]*client.Client
	logs    map[string]*workload.Log
	replays map[string]*replay
}

// NewEnv creates an environment.
func NewEnv(scale float64, seed uint64) *Env {
	if scale <= 0 {
		scale = 1
	}
	return &Env{
		Scale:   scale,
		Seed:    seed,
		Logf:    func(string, ...interface{}) {},
		systems: make(map[string]*zerberr.System),
		clients: make(map[string]*client.Client),
		logs:    make(map[string]*workload.Log),
		replays: make(map[string]*replay),
	}
}

// profileByName resolves the two evaluation collections.
func profileByName(name string) (corpus.Profile, error) {
	switch name {
	case "studip":
		return corpus.ProfileStudIP(), nil
	case "odp":
		return corpus.ProfileODP(), nil
	default:
		return corpus.Profile{}, fmt.Errorf("experiments: unknown profile %q (want studip or odp)", name)
	}
}

// System returns the fully indexed Zerber+R deployment for a profile,
// building it on first use. Experiments use the compact 64-bit codec
// for byte parity with Section 6.6.
func (e *Env) System(profile string) (*zerberr.System, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sys, ok := e.systems[profile]; ok {
		return sys, nil
	}
	p, err := profileByName(profile)
	if err != nil {
		return nil, err
	}
	p = p.Scale(e.Scale)
	e.Logf("building %s system (%d docs, %d vocab)...", profile, p.NumDocs, p.VocabSize)
	c := corpus.Generate(p, e.Seed)
	cfg := zerberr.DefaultConfig()
	cfg.Seed = e.Seed
	cfg.Codec = crypt.Compact64Codec{}
	sys, err := zerberr.Setup(c, cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.IndexAll(); err != nil {
		return nil, err
	}
	e.systems[profile] = sys
	e.Logf("%s system ready: %d elements in %d merged lists", profile, sys.Server.NumElements(), sys.Server.NumLists())
	return sys, nil
}

// Client returns a shared all-groups reader client for the profile.
func (e *Env) Client(profile string) (*client.Client, error) {
	sys, err := e.System(profile)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cl, ok := e.clients[profile]; ok {
		return cl, nil
	}
	cl, err := sys.NewClient("experiments-reader")
	if err != nil {
		return nil, err
	}
	e.clients[profile] = cl
	return cl, nil
}

// Workload returns the profile's query log, generating it on first
// use.
func (e *Env) Workload(profile string) (*workload.Log, error) {
	sys, err := e.System(profile)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l, ok := e.logs[profile]; ok {
		return l, nil
	}
	cfg := workload.DefaultConfig()
	cfg.NumQueries = int(20000 * e.Scale)
	if cfg.NumQueries < 2000 {
		cfg.NumQueries = 2000
	}
	l := workload.Generate(sys.Corpus, cfg, e.Seed)
	e.logs[profile] = l
	return l, nil
}

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"fig04":     Fig04TFDistribution,
	"fig05":     Fig05NormTFDistribution,
	"fig07":     Fig07GaussianSum,
	"fig08":     Fig08ExampleRSTF,
	"fig09":     Fig09SigmaSelection,
	"fig10":     Fig10WorkloadConcentration,
	"fig11":     Fig11BandwidthOverhead,
	"fig12":     Fig12RequestCounts,
	"fig13":     Fig13QueryEfficiency,
	"bandwidth": BandwidthAnalysis,
	"accuracy":  MultiTermAccuracy,
	"attacks":   AttackSimulations,
	"ablation":  Ablations,
}

// docs gives each experiment a one-line description without having
// to run it (Result.Title is only known after the fact, and some
// titles embed generated data).
var docs = map[string]string{
	"fig04":     "Figure 4: log-log plot of TF distributions",
	"fig05":     "Figure 5: log-log plot of normalized TF distributions",
	"fig07":     "Figure 7: probability distribution from 5 training values",
	"fig08":     "Figure 8: example RSTF for a sampled term",
	"fig09":     "Figure 9: TRS variance vs sigma",
	"fig10":     "Figure 10: cumulative top-10 workload vs query-term rank",
	"fig11":     "Figure 11: average bandwidth overhead vs initial response size",
	"fig12":     "Figure 12: average number of requests vs initial response size",
	"fig13":     "Figure 13: efficiency in query answering (k=10)",
	"bandwidth": "Section 6.6: network bandwidth and throughput (ODP)",
	"accuracy":  "Ext-A: multi-term ranking accuracy (top-10 overlap, Stud IP)",
	"attacks":   "Ext-B: adversary simulations (Definition 1 quantified)",
	"ablation":  "Ext-C: ablations of design choices",
}

// Doc returns the experiment's one-line description.
func Doc(id string) string { return docs[id] }

// IDs lists all experiment IDs in run order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, e *Env) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(e)
}
