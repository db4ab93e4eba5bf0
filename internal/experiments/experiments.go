// Package experiments regenerates every evaluation artifact of the
// paper — Figures 4, 5, 7, 8, 9, 10, 11, 12, 13 and the Section 6.6
// bandwidth/throughput analysis — plus the extension experiments
// documented in DESIGN.md (multi-term accuracy, quantified attacks,
// ablations). Each experiment is a Runner producing a Result that
// renders as an ASCII chart, a table and notes comparing the measured
// shape against what the paper reports. The package also owns the one
// experiment registry (Table) cmd/zerber-bench resolves -run IDs
// against.
package experiments

import (
	"context"
	"fmt"
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

// Runner executes one paper experiment against a shared environment.
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
	// Logf receives progress lines (a no-op by default).
	Logf func(format string, args ...interface{})

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
	l := workload.Generate(sys.Corpus, max(int(20000*e.Scale), 2000), e.Seed)
	e.logs[profile] = l
	return l, nil
}

// Experiment is one registered runnable: a paper figure, an extension
// experiment, or something a command mounts beside them.
type Experiment struct {
	// Name is the `zerber-bench -run` ID.
	Name string
	// Doc is the one-line description -list prints, and the Result's
	// title unless the run sets one that embeds generated data.
	Doc string
	// Manual excludes the experiment from `-run all`; it only runs
	// when named explicitly (the soak scenario, which boots real
	// processes for a configured wall-clock duration, is Manual).
	Manual bool
	// Run executes the experiment against the shared environment.
	Run func(ctx context.Context, e *Env) (*Result, error)
}

// Table is the experiment registry, in registration order.
// Unknown names fail loudly with the list of available ones; nothing
// ever "runs nothing" silently.
type Table []Experiment

// paper adapts one figure/extension runner to the registry. The table
// is the one place an experiment's ID and title are written: the
// result is stamped with them here.
func paper(name, doc string, r Runner) Experiment {
	return Experiment{Name: name, Doc: doc, Run: func(ctx context.Context, e *Env) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := r(e)
		if err != nil {
			return nil, err
		}
		res.ID = name
		if res.Title == "" {
			res.Title = doc
		}
		return res, nil
	}}
}

// Paper returns a fresh table holding the paper's figures and the
// DESIGN.md extension experiments. cmd/zerber-bench registers the
// soak scenario on top (its configuration is flag state owned by the
// command).
func Paper() Table {
	return Table{
		paper("ablation", "Ext-C: ablations of design choices", Ablations),
		paper("accuracy", "Ext-A: multi-term ranking accuracy (top-10 overlap, Stud IP)", MultiTermAccuracy),
		paper("attacks", "Ext-B: adversary simulations (Definition 1 quantified)", AttackSimulations),
		paper("bandwidth", "Section 6.6: network bandwidth and throughput (ODP)", BandwidthAnalysis),
		paper("fig04", "Figure 4: log-log plot of TF distributions", Fig04TFDistribution),
		paper("fig05", "Figure 5: log-log plot of normalized TF distributions", Fig05NormTFDistribution),
		paper("fig07", "Figure 7: probability distribution from 5 training values", Fig07GaussianSum),
		paper("fig08", "Figure 8: example RSTF for a sampled term", Fig08ExampleRSTF),
		paper("fig09", "Figure 9: TRS variance vs sigma", Fig09SigmaSelection),
		paper("fig10", "Figure 10: cumulative top-10 workload vs query-term rank", Fig10WorkloadConcentration),
		paper("fig11", "Figure 11: average bandwidth overhead vs initial response size", Fig11BandwidthOverhead),
		paper("fig12", "Figure 12: average number of requests vs initial response size", Fig12RequestCounts),
		paper("fig13", "Figure 13: efficiency in query answering (k=10)", Fig13QueryEfficiency),
		paper("windows", "First windows: rounds, requests and elements per search, fixed b = 10 vs derived per list", WindowSweep),
	}
}

// Register appends an experiment; an empty name, a nil Run and a
// duplicate name are errors.
func (t *Table) Register(x Experiment) error {
	if x.Name == "" || x.Run == nil {
		return fmt.Errorf("experiments: experiment %q needs a name and a Run", x.Name)
	}
	if _, err := t.Lookup(x.Name); err == nil {
		return fmt.Errorf("experiments: experiment %q registered twice", x.Name)
	}
	*t = append(*t, x)
	return nil
}

// Names lists the registered names in registration order.
func (t Table) Names() []string {
	out := make([]string, len(t))
	for i, x := range t {
		out[i] = x.Name
	}
	return out
}

// Lookup resolves a name; unknown names fail with the available list.
func (t Table) Lookup(name string) (Experiment, error) {
	for _, x := range t {
		if x.Name == name {
			return x, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (available: %s)", name, strings.Join(t.Names(), ", "))
}
