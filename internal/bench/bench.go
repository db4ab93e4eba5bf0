// Package bench is the experiment registry behind cmd/zerber-bench:
// every runnable artifact — the paper's figures, the extension
// experiments, the soak/chaos scenario — registers as a named
// Experiment, and the CLI resolves -run IDs against the registry
// instead of an ad-hoc switch. Unknown IDs fail loudly with the list
// of available names; nothing ever "runs nothing" silently.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"zerberr/internal/experiments"
)

// Row is one machine-readable measurement an experiment emits beside
// its rendered output: a named scalar with a unit and optional
// attributes. The CLI prints rows as aligned text (and they are what a
// harness would scrape, in contrast to the human-facing charts written
// to Env.Out).
type Row struct {
	// Name identifies the measurement, conventionally
	// "<experiment>.<metric>".
	Name string
	// Value is the measurement.
	Value float64
	// Unit names Value's unit ("ops", "ms", "bytes", ...).
	Unit string
	// Attrs carries optional dimensions (shard, fault class, ...).
	Attrs map[string]string
}

// Env is the shared environment experiments run against.
type Env struct {
	// Scale multiplies corpus sizes (1 = laptop defaults).
	Scale float64
	// Seed drives all generation deterministically.
	Seed uint64
	// Batched makes search-driving experiments batch every open list
	// into each round of their timed loops instead of going serially.
	Batched bool
	// Out receives rendered experiment output (charts, tables, soak
	// reports). Defaults to io.Discard if nil.
	Out io.Writer
	// CSVDir, when non-empty, is where experiments that produce CSV
	// write their per-experiment files.
	CSVDir string
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...interface{})

	mu    sync.Mutex
	paper *experiments.Env
}

// Paper returns the lazily built internal/experiments environment, so
// the paper-figure experiments share corpora, systems and replays
// across one CLI invocation exactly as they did before the registry.
func (e *Env) Paper() *experiments.Env {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.paper == nil {
		e.paper = experiments.NewEnv(e.Scale, e.Seed)
		e.paper.Batched = e.Batched
		if e.Logf != nil {
			e.paper.Logf = e.Logf
		}
	}
	return e.paper
}

// logf logs progress if a logger is installed.
func (e *Env) logf(format string, args ...interface{}) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// output returns the experiment output sink.
func (e *Env) output() io.Writer {
	if e.Out == nil {
		return io.Discard
	}
	return e.Out
}

// Experiment is one registered runnable.
type Experiment struct {
	// Name is the -run ID.
	Name string
	// Doc is the one-line description -list prints.
	Doc string
	// Manual excludes the experiment from `-run all`; it only runs
	// when named explicitly (the soak scenario, which boots real
	// processes and runs for a configured wall-clock duration, is
	// Manual).
	Manual bool
	// Run executes the experiment and returns its measurements.
	Run func(ctx context.Context, env *Env) ([]Row, error)
}

// Registry holds experiments in registration order.
type Registry struct {
	mu     sync.Mutex
	order  []Experiment
	byName map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Register adds an experiment; empty names and duplicates are errors.
func (r *Registry) Register(e Experiment) error {
	if e.Name == "" {
		return fmt.Errorf("bench: experiment with empty name")
	}
	if e.Run == nil {
		return fmt.Errorf("bench: experiment %q has no Run", e.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.Name]; dup {
		return fmt.Errorf("bench: experiment %q registered twice", e.Name)
	}
	r.byName[e.Name] = len(r.order)
	r.order = append(r.order, e)
	return nil
}

// MustRegister is Register that panics, for wiring done at startup.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Names lists registered experiment names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.Name
	}
	return out
}

// All returns the registered experiments in registration order.
func (r *Registry) All() []Experiment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Experiment(nil), r.order...)
}

// Lookup resolves a name; unknown names fail with the available list.
func (r *Registry) Lookup(name string) (Experiment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.order[i], nil
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (available: %s)",
		name, strings.Join(r.namesLocked(), ", "))
}

// namesLocked is Names without re-locking.
func (r *Registry) namesLocked() []string {
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.Name
	}
	return out
}

// Default returns a registry with the full paper suite mounted. The
// CLI adds the soak experiment on top (its configuration is flag
// state owned by the command).
func Default() *Registry {
	r := NewRegistry()
	RegisterPaper(r)
	return r
}

// RegisterPaper mounts every internal/experiments artifact (the
// paper's figures and the DESIGN.md extension experiments) onto the
// registry. Each renders its charts/tables to Env.Out, writes CSV
// into Env.CSVDir when set, and returns one Row per data series
// summarizing what it produced.
func RegisterPaper(r *Registry) {
	for _, id := range experiments.IDs() {
		r.MustRegister(Experiment{
			Name: id,
			Doc:  experiments.Doc(id),
			Run:  paperRunner(id),
		})
	}
}

// paperRunner adapts one internal/experiments runner to the registry
// interface.
func paperRunner(id string) func(ctx context.Context, env *Env) ([]Row, error) {
	return func(ctx context.Context, env *Env) ([]Row, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := experiments.Run(id, env.Paper())
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(env.output(), res.Render())
		if env.CSVDir != "" {
			if err := writeCSV(env.CSVDir, res); err != nil {
				return nil, err
			}
		}
		rows := make([]Row, 0, len(res.Series))
		for _, s := range res.Series {
			rows = append(rows, Row{
				Name:  id + "." + sanitize(s.Name),
				Value: float64(len(s.X)),
				Unit:  "points",
			})
		}
		return rows, nil
	}
}

// writeCSV writes one experiment's series as <dir>/<id>.csv.
func writeCSV(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.ID+".csv"), []byte(res.CSV()), 0o644)
}

// sanitize turns a series title into a row-name fragment.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// Sort orders rows by name for stable output.
func Sort(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
}
