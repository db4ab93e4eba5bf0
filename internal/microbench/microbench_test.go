package microbench

import (
	"flag"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector, whose
// instrumentation allocates, is compiled in.
var raceEnabled bool

// TestSuiteRunsAndHoldsItsGates runs every leg of the table once — the
// same single iteration CI's bench smoke runs, but failing here, in
// `go test ./...`, when a leg's fixture or its b.Fatal checks break —
// and holds each gated leg to its allocation count.
func TestSuiteRunsAndHoldsItsGates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 120k-element fixtures")
	}
	// testing.Benchmark takes its iteration budget from -test.benchtime.
	benchtime := flag.Lookup("test.benchtime")
	defer flag.Set("test.benchtime", benchtime.Value.String())
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, bench := range Suite() {
		if seen[bench.Name] {
			t.Errorf("%s: listed twice", bench.Name)
		}
		seen[bench.Name] = true
		res := testing.Benchmark(bench.F)
		if res.N == 0 {
			t.Errorf("%s: did not run (failed inside testing.Benchmark)", bench.Name)
			continue
		}
		if bench.MaxAllocs == Ungated || raceEnabled {
			continue
		}
		got := res.AllocsPerOp()
		// The count is the process's mallocs over one iteration, so a
		// GC cycle or an earlier leg's lingering goroutine adds to it
		// and nothing subtracts: the lowest of a few readings is the
		// leg's own figure.
		for retry := 0; got > bench.MaxAllocs && retry < 4; retry++ {
			got = min(got, testing.Benchmark(bench.F).AllocsPerOp())
		}
		if got > bench.MaxAllocs {
			t.Errorf("%s: %d allocs/op, gate %d", bench.Name, got, bench.MaxAllocs)
		} else {
			t.Logf("%s: %d allocs/op (gate %d)", bench.Name, got, bench.MaxAllocs)
		}
	}
}
