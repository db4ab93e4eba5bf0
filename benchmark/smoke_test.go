package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smoke runs one workload on a tenth-size corpus for a fixed number of
// operations, set up once.
func smoke(t *testing.T, workload string, seed uint64, trace bool) output {
	t.Helper()
	ops := map[string]int{"head": 600, "deep": 120, "proved": 60, "mixed": 400}[workload]
	cfg := config{
		workload: workload, seed: seed, ops: ops, trace: trace,
		dir: t.TempDir(), setups: 1, scale: 0.1, logf: t.Logf,
	}
	if trace {
		cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < ops {
		t.Fatalf("%s (trace %v): correct %v, %d of %d failed", workload, trace, out.Correct, out.Failed, out.Attempted)
	}
	if trace {
		var spans []map[string]any
		raw, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Fatalf("%s: span dump does not parse (%v) or is empty", workload, err)
		}
	}
	return out
}

// manifest is the part of BENCHMARK.json the code must agree with.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEveryWorkloadEmitsEveryMetric checks that the names and units in
// BENCHMARK.json, in the code's tables and in what a run prints are
// the same, for both kinds of run on every workload.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(m.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			declared, table := m.EndToEnd, endToEndMetrics
			if trace {
				declared, table = m.PerLayer, perLayerMetrics
			}
			if len(declared) != len(table) {
				t.Fatalf("BENCHMARK.json declares %d metrics (trace %v), the code %d", len(declared), trace, len(table))
			}
			out := smoke(t, w.Name, 1, trace)
			if len(out.Metrics) != len(declared) {
				t.Errorf("%s (trace %v): %d metrics printed, %d declared", w.Name, trace, len(out.Metrics), len(declared))
			}
			for j, d := range declared {
				if d.Name != table[j][0] || d.Unit != table[j][1] {
					t.Errorf("metric %d: BENCHMARK.json says %s [%s], the code %s [%s]", j, d.Name, d.Unit, table[j][0], table[j][1])
				}
				if !name.MatchString(d.Name) {
					t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
				}
				got, ok := out.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s is missing", w.Name, trace, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, d.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, got.Value)
				}
			}
		}
	}
}

// TestCountsRepeatAtOneSeed: with -ops, what the protocol costs is a
// property of the seed alone. Rounds repeat exactly. Bytes repeat to
// within the width of the `version` field in each response, which
// carries a random per-data-directory epoch and so varies by a digit.
func TestCountsRepeatAtOneSeed(t *testing.T) {
	for _, w := range []string{"head", "deep", "proved"} {
		a, b, other := smoke(t, w, 7, false), smoke(t, w, 7, false), smoke(t, w, 8, false)
		if x, y := a.Metrics["rounds_per_search"].Value, b.Metrics["rounds_per_search"].Value; x != y {
			t.Errorf("%s: rounds_per_search %v then %v at one seed", w, x, y)
		}
		x, y := a.Metrics["wire_bytes_per_search"].Value, b.Metrics["wire_bytes_per_search"].Value
		if math.Abs(x-y)/x > 1e-3 {
			t.Errorf("%s: wire_bytes_per_search %v then %v at one seed", w, x, y)
		}
		if z := other.Metrics["wire_bytes_per_search"].Value; math.Abs(x-z)/x <= 1e-3 {
			t.Errorf("%s: wire_bytes_per_search %v at seed 7 and %v at seed 8: the seed does not reach the inputs", w, x, z)
		}
	}
}
