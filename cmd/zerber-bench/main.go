// Command zerber-bench runs the repo's registered experiments: every
// figure of the EDBT 2009 Zerber+R paper, the extension experiments
// documented in DESIGN.md, and the soak/chaos scenario.
//
// Usage:
//
//	zerber-bench -list
//	zerber-bench -run fig11 [-scale 1] [-seed 1] [-csv results/]
//	zerber-bench -run all -scale 0.5
//	zerber-bench -soak -soak-duration 60s -soak-shards 2 -soak-replicas 2
//	zerber-bench -o BENCH_21.json -q
//
// Experiments are resolved against the internal/experiments table (the
// command registers the soak scenario on it): -list prints every
// registered name with its one-line description, unknown -run IDs fail
// listing the available names, and `-run all` runs every non-manual
// experiment. The soak scenario is manual (it boots real zerberd
// processes and runs for a configured wall-clock duration), so it only
// runs when asked for by name or via -soak, and it exits non-zero when
// an invariant or the error budget broke. The micro-benchmarks are
// manual too (≈ 4 minutes): `-run micro` prints their table, -o FILE
// runs them and keeps the snapshot.
//
// Scale 1 is the laptop default; the paper-sized collections are
// roughly -scale 4 (Stud IP) and -scale 30 (ODP).
//
// -o FILE runs the micro-benchmarks (microbench.Suite() — the same
// table the go-test bench harness mounts) and writes one JSON object
// per line to FILE: {"name", "ns_per_op", "allocs_per_op",
// "bytes_per_op", "runs", "cov"} — each leg runs six times, ns_per_op
// is the median and cov the coefficient of variation across the runs.
// This is the shared format of the repo's BENCH_*.json trajectory
// snapshots and of the CI bench job's artifact; the file is named by
// whoever runs the tool, not by a shell redirect.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"zerberr/internal/experiments"
	"zerberr/internal/microbench"
	"zerberr/internal/soak"
	"zerberr/internal/stats"
	"zerberr/internal/workload"
)

// logger keeps progress on stderr (structured), leaving stdout to the
// experiment renders.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// fatal logs the failure and exits non-zero.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		list   = flag.Bool("list", false, "list registered experiments and exit")
		run    = flag.String("run", "all", "comma-separated experiment names to run, or 'all' (every non-manual experiment)")
		scale  = flag.Float64("scale", 1, "corpus scale factor (1 = laptop default)")
		seed   = flag.Uint64("seed", 1, "deterministic seed")
		csvDir = flag.String("csv", "", "also write per-experiment CSV files into this directory")
		quiet  = flag.Bool("q", false, "suppress progress logging")
		out    = flag.String("o", "", "run the micro-benchmarks and write their snapshot (one JSON line per leg, the BENCH_<PR>.json format) to this file; shorthand for -run micro")

		// Soak/chaos knobs (the soak experiment; -soak ≡ -run soak).
		soakMode      = flag.Bool("soak", false, "run the soak/chaos scenario (shorthand for -run soak)")
		soakBinary    = flag.String("soak-zerberd", "", "zerberd binary to boot (default: build it into the soak work dir)")
		soakDir       = flag.String("soak-dir", "", "soak work directory (default: a temp dir)")
		soakShards    = flag.Int("soak-shards", 2, "routing slots in the soak cluster")
		soakReplicas  = flag.Int("soak-replicas", 2, "members per soak replica set (primary included)")
		soakWorkers   = flag.Int("soak-workers", 4, "concurrent load-generator clients")
		soakDuration  = flag.Duration("soak-duration", 60*time.Second, "soak wall-clock bound")
		soakOps       = flag.Uint64("soak-ops", 0, "optional op-count bound (0 = duration only)")
		soakUsers     = flag.Int("soak-users", 1_000_000, "simulated zipfian user population")
		soakFaults    = flag.Duration("soak-fault-every", 5*time.Second, "pause between fault injections (0 disables chaos)")
		soakDowntime  = flag.Duration("soak-downtime", 500*time.Millisecond, "how long a SIGKILLed member stays down")
		soakBudget    = flag.Float64("soak-error-budget", 0.10, "tolerated failed-operation fraction")
		soakDocs      = flag.Int("soak-docs", 300, "bootstrap corpus size (documents)")
		soakProof     = flag.Uint64("soak-proof-every", 16, "ask every Nth search for a Merkle proof (0 disables)")
		soakReportOut = flag.String("soak-report", "", "also write the one-line JSON soak report to this file")
	)
	flag.Parse()

	tab := experiments.Paper()
	err := tab.Register(experiments.Experiment{
		Name:   "soak",
		Doc:    "soak/chaos: boot a real sharded+replicated zerberd cluster, drive zipfian users, SIGKILL/restart/migrate, assert identity+epoch+proof invariants",
		Manual: true,
		Run: func(ctx context.Context, env *experiments.Env) (*experiments.Result, error) {
			return runSoak(ctx, env, soakFlags{
				binary:      *soakBinary,
				dir:         *soakDir,
				shards:      *soakShards,
				replicas:    *soakReplicas,
				workers:     *soakWorkers,
				duration:    *soakDuration,
				maxOps:      *soakOps,
				users:       *soakUsers,
				faultEvery:  *soakFaults,
				downtime:    *soakDowntime,
				errorBudget: *soakBudget,
				docs:        *soakDocs,
				proofEvery:  *soakProof,
				reportPath:  *soakReportOut,
			})
		},
	})
	if err == nil {
		err = tab.Register(experiments.Experiment{
			Name:   "micro",
			Doc:    "micro-benchmarks: every leg of microbench.Suite() six times, median ns/op with its spread (-o FILE keeps the BENCH_<PR>.json snapshot)",
			Manual: true,
			Run: func(_ context.Context, env *experiments.Env) (*experiments.Result, error) {
				return runMicrobench(env, *out)
			},
		})
	}
	if err != nil {
		fatal("registering the manual experiments", "err", err)
	}

	if *list {
		for _, x := range tab {
			manual := ""
			if x.Manual {
				manual = " (manual)"
			}
			fmt.Printf("%-12s %s%s\n", x.Name, x.Doc, manual)
		}
		return
	}

	env := experiments.NewEnv(*scale, *seed)
	if !*quiet {
		env.Logf = func(format string, args ...interface{}) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}

	if *soakMode {
		*run = "soak"
	}
	if *out != "" {
		*run = "micro"
	}
	var selected []experiments.Experiment
	if *run == "all" {
		for _, x := range tab {
			if !x.Manual {
				selected = append(selected, x)
			}
		}
	} else {
		for _, name := range strings.Split(*run, ",") {
			x, err := tab.Lookup(strings.TrimSpace(name))
			if err != nil {
				fatal("unknown experiment", "err", err)
			}
			selected = append(selected, x)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal("creating the CSV directory failed", "err", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, x := range selected {
		start := time.Now()
		res, err := x.Run(ctx, env)
		if err != nil {
			fatal("experiment failed", "name", x.Name, "err", err)
		}
		fmt.Println(res.Render())
		if *csvDir != "" {
			if err := os.WriteFile(filepath.Join(*csvDir, res.ID+".csv"), []byte(res.CSV()), 0o644); err != nil {
				fatal("writing CSV failed", "name", x.Name, "err", err)
			}
		}
		if !*quiet {
			logger.Info("experiment finished", "name", x.Name, "elapsed", time.Since(start).Round(time.Millisecond))
		}
	}
}

// benchLine is one micro-benchmark result in the shared snapshot
// format: the fields benchstat-adjacent tooling and the BENCH_*.json
// trajectory agree on, plus how many runs stand behind the line and
// how far they spread.
type benchLine struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"` // median over Runs
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Runs        int     `json:"runs"`
	CoV         float64 `json:"cov"` // standard deviation of ns/op over its mean
}

// snapshotRuns is how often each leg runs for one snapshot line: a
// single run on a shared box cannot tell drift from noise (the PR 9
// rows), six is what CI's benchstat gate uses.
const snapshotRuns = 6

// runMicrobench drives the microbench suite through testing.Benchmark,
// snapshotRuns times per leg. The result's table is what a terminal
// gets; with a path, the same lines are written there as the snapshot.
func runMicrobench(env *experiments.Env, path string) (*experiments.Result, error) {
	res := &experiments.Result{
		ID:      "micro",
		Title:   "micro-benchmarks (median of runs)",
		Headers: []string{"leg", "ns/op", "allocs/op", "B/op", "runs", "cov"},
	}
	var snapshot bytes.Buffer
	enc := json.NewEncoder(&snapshot)
	for _, bench := range microbench.Suite() {
		if env.Logf != nil {
			env.Logf("running benchmark %s", bench.Name)
		}
		line := benchLine{Name: bench.Name, Runs: snapshotRuns}
		ns := make([]float64, snapshotRuns)
		for i := range ns {
			r := testing.Benchmark(bench.F)
			if r.N == 0 {
				return nil, fmt.Errorf("benchmark %s did not run (failed inside testing.Benchmark)", bench.Name)
			}
			ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
			// Allocation counts do not vary with load: the last run's stand.
			line.AllocsPerOp, line.BytesPerOp = r.AllocsPerOp(), r.AllocedBytesPerOp()
		}
		line.NsPerOp = stats.Median(ns)
		line.CoV = stats.StdDev(ns) / stats.Mean(ns)
		if err := enc.Encode(line); err != nil {
			return nil, fmt.Errorf("encoding benchmark line: %w", err)
		}
		res.Rows = append(res.Rows, []interface{}{line.Name, line.NsPerOp, line.AllocsPerOp, line.BytesPerOp, line.Runs, line.CoV})
	}
	if path != "" {
		if err := os.WriteFile(path, snapshot.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("writing the snapshot: %w", err)
		}
	}
	return res, nil
}

// soakFlags carries the -soak-* flag values into the soak experiment.
type soakFlags struct {
	binary, dir          string
	shards, replicas     int
	workers              int
	duration             time.Duration
	maxOps               uint64
	users                int
	faultEvery, downtime time.Duration
	errorBudget          float64
	docs                 int
	proofEvery           uint64
	reportPath           string
}

// runSoak executes the soak scenario: resolve (or build) the zerberd
// binary, run internal/soak, print and write the one-line JSON report,
// and return the key counters as the result's table. A soak that broke
// an invariant or its error budget is an error — after the report is
// out, so CI can still read what went wrong.
func runSoak(ctx context.Context, env *experiments.Env, f soakFlags) (*experiments.Result, error) {
	cfg := soak.DefaultConfig()
	cfg.ZerberdPath = f.binary
	cfg.Dir = f.dir
	cfg.Shards = f.shards
	cfg.Replicas = f.replicas
	cfg.Workers = f.workers
	cfg.Duration = f.duration
	cfg.MaxOps = f.maxOps
	cfg.Seed = env.Seed
	cfg.Stream = workload.StreamConfig{Users: f.users}
	cfg.FaultEvery = f.faultEvery
	cfg.FaultDowntime = f.downtime
	cfg.ErrorBudget = f.errorBudget
	cfg.CorpusDocs = f.docs
	cfg.ProofEvery = f.proofEvery
	cfg.Logf = env.Logf

	if cfg.ZerberdPath == "" {
		path, cleanup, err := soak.BuildZerberd(ctx, cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("building zerberd (pass -soak-zerberd to skip): %w", err)
		}
		defer cleanup()
		cfg.ZerberdPath = path
	}

	rep, err := soak.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	line := rep.JSON()
	fmt.Fprintln(os.Stdout, line)
	if f.reportPath != "" {
		if err := os.WriteFile(f.reportPath, []byte(line+"\n"), 0o644); err != nil {
			return nil, fmt.Errorf("writing soak report: %w", err)
		}
	}
	if !rep.OK {
		return nil, fmt.Errorf("soak failed: an invariant or the error budget broke (report above)")
	}
	return &experiments.Result{
		ID:      "soak",
		Title:   "soak/chaos scenario",
		Headers: []string{"counter", "value", "unit"},
		Rows: [][]interface{}{
			{"ops", rep.Ops, "ops"},
			{"error rate", rep.ErrorRate, "fraction"},
			{"search p99", rep.SearchP99Ms, "ms"},
			{"kills", rep.PrimaryKills + rep.ReplicaKills, "faults"},
			{"migrations", rep.Migrations, "faults"},
			{"identity violations", rep.IdentityViolations, "violations"},
			{"epoch violations", rep.EpochViolations, "violations"},
			{"proof violations", rep.ProofViolations, "violations"},
		},
	}, nil
}
