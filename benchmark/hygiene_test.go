package main

import (
	"context"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// TestNoProcessSpawning: the benchmark serves everything from its own
// process. A child it started could outlive it; code that cannot start
// one cannot leave one behind.
func TestNoProcessSpawning(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			switch path, _ := strconv.Unquote(imp.Path.Value); path {
			case "os/exec", "zerberr/internal/soak":
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}

// leftovers waits for the goroutine count to come back to base and
// reports what is left of dir.
func leftovers(t *testing.T, base int, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after:\n%s", base, n, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s was left behind", filepath.Join(dir, e.Name()))
	}
}

// TestRunLeavesNothingBehind: after a run — of the widest topology,
// traced and not — every goroutine it started has ended and every
// data directory is gone.
func TestRunLeavesNothingBehind(t *testing.T) {
	for _, trace := range []bool{false, true} {
		dir := t.TempDir()
		base := runtime.NumGoroutine()
		out, err := run(context.Background(), config{
			workload: "mixed", seed: 3, ops: 300, trace: trace,
			dir: dir, setups: 2, scale: 0.1, logf: t.Logf,
		})
		if err != nil || !out.Correct {
			t.Fatalf("run: %v (correct %v)", err, out.Correct)
		}
		leftovers(t, base, dir)
	}
}

// TestInterruptedRunLeavesNothingBehind cancels a run mid-phase, as
// SIGTERM does through main's signal context: it must return an
// error, not a result, and clean up all the same.
func TestInterruptedRunLeavesNothingBehind(t *testing.T) {
	dir := t.TempDir()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(1500*time.Millisecond, cancel)
	_, err := run(ctx, config{
		workload: "mixed", seed: 3, seconds: 60,
		dir: dir, setups: 1, scale: 0.1, logf: t.Logf,
	})
	if err == nil {
		t.Fatal("an interrupted run returned a result")
	}
	leftovers(t, base, dir)
}
