package zerberr_test

// The micro-benchmarks of the hot paths — store reads and appends,
// cached and proved queries, cold starts, hedged replica reads, the
// in-process search schedules — alongside the figure and component
// benches in bench_test.go. The table lives in internal/microbench,
// which documents each leg and why it is kept; this file only mounts
// it, so `go test -bench`, CI's benchstat gate and `zerber-bench -o`
// snapshots run one list of one code.

import (
	"testing"

	"zerberr/internal/microbench"
)

func BenchmarkMicro(b *testing.B) {
	for _, m := range microbench.Suite() {
		b.Run(m.Name, m.F)
	}
}
