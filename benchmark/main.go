// Command benchmark is the repository's end-to-end benchmark: it
// builds a deterministic fixture from -seed, serves it from real
// net/http servers on loopback inside this process — wired the way
// cmd/zerberd wires a server with -data-dir — drives it with
// closed-loop protocol clients for -seconds seconds, checks the
// answers, and prints one JSON object. README.md in this directory
// describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// config is one invocation. The unexported knobs exist for the tests,
// which cannot afford full-size fixtures; the command line reaches
// only the exported behaviour.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	ops      int  // > 0: measure exactly this many stream operations instead of for -seconds
	trace    bool // traced run: one client, per-layer metrics
	traceOut string

	dir    string  // where data directories are created
	setups int     // fixtures built per run; the last one is measured
	scale  float64 // multiplies every workload's corpus scale
	logf   func(format string, args ...any)
}

// watchdog bounds one invocation: the benchmark exits non-zero rather
// than hang past the time its caller allows a run.
const watchdog = 170 * time.Second

// output is the last line the command prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	cfg := config{setups: 3, scale: 1, logf: func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: head, deep, proved or mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the corpus and the operation stream")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&cfg.ops, "ops", 0, "measure exactly this many operations instead of for -seconds, so that counts repeat exactly at one seed")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced single-client run and prints the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, file to write the recorded spans to as JSON")
	flag.Parse()
	cfg.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected argument", flag.Arg(0))
		return 2
	}

	// Every server's data directory lives under one temporary
	// directory (run.sh points TMPDIR into the checkout), removed on
	// every way out.
	dir, err := os.MkdirTemp("", "zerber-benchmark-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeoutCause(ctx, watchdog, errors.New("watchdog: run exceeded "+watchdog.String()))
	defer cancel()
	// Cancelling the context unwinds run through its clean-up. Should
	// that itself hang, leave anyway shortly after.
	go func() {
		<-ctx.Done()
		time.Sleep(8 * time.Second)
		fmt.Fprintln(os.Stderr, "benchmark: clean-up did not finish:", context.Cause(ctx))
		os.RemoveAll(dir)
		os.Exit(3)
	}()

	out, err := run(ctx, cfg)
	if err != nil {
		if cause := context.Cause(ctx); cause != nil {
			err = fmt.Errorf("%w (%v)", err, cause)
		}
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
