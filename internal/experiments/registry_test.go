package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func noopRun(context.Context, *Env) (*Result, error) { return &Result{}, nil }

func TestRegistryRegisterAndLookup(t *testing.T) {
	var tab Table
	if err := tab.Register(Experiment{Name: "a", Doc: "first", Run: noopRun}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Register(Experiment{Name: "b", Doc: "second", Run: noopRun}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Register(Experiment{Name: "a", Run: noopRun}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := tab.Register(Experiment{Name: "", Run: noopRun}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := tab.Register(Experiment{Name: "norun"}); err == nil {
		t.Fatal("nil Run accepted")
	}
	if got := tab.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names() = %v, want registration order [a b]", got)
	}
	x, err := tab.Lookup("b")
	if err != nil || x.Doc != "second" {
		t.Fatalf("Lookup(b) = %+v, %v", x, err)
	}
}

func TestRegistryUnknownNameListsAvailable(t *testing.T) {
	tab := Paper()
	if err := tab.Register(Experiment{Name: "soak", Manual: true, Run: noopRun}); err != nil {
		t.Fatal(err)
	}
	_, err := tab.Lookup("fig99")
	if err == nil {
		t.Fatal("unknown experiment did not error")
	}
	for _, want := range []string{"fig99", "fig04", "soak"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-name error %q does not mention %q", err, want)
		}
	}
}

func TestDefaultRegistryCoversPaperSuite(t *testing.T) {
	seen := make(map[string]bool)
	for _, x := range Paper() {
		if x.Doc == "" || x.Run == nil {
			t.Fatalf("experiment %q lacks a doc line or a Run", x.Name)
		}
		if x.Manual {
			t.Fatalf("paper experiment %q is Manual; only the soak scenario should be", x.Name)
		}
		if seen[x.Name] {
			t.Fatalf("experiment %q appears twice in the table", x.Name)
		}
		seen[x.Name] = true
	}
	// A table a caller registered on must not leak into the next Paper().
	tab := Paper()
	if err := tab.Register(Experiment{Name: "extra", Run: noopRun}); err != nil {
		t.Fatal(err)
	}
	if _, err := Paper().Lookup("extra"); err == nil {
		t.Fatal("Register on one table changed a fresh Paper()")
	}
}

func TestPaperExperimentRendersAndWritesCSV(t *testing.T) {
	x, err := Paper().Lookup("fig07")
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.Run(context.Background(), NewEnv(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The table stamps the result: its name is the ID, its doc line the
	// title of an experiment that sets none of its own.
	if res.ID != "fig07" || res.Title != x.Doc {
		t.Fatalf("fig07 came back as ID %q, title %q", res.ID, res.Title)
	}
	if out := res.Render(); !strings.Contains(out, "fig07") || !strings.Contains(out, x.Doc) {
		t.Fatalf("rendered output does not name the experiment: %q", out)
	}
	if len(res.Series) == 0 {
		t.Fatal("fig07 has no series to chart")
	}
	// One header line, then at least one row per series.
	if lines := strings.Count(res.CSV(), "\n"); lines <= len(res.Series) {
		t.Fatalf("CSV has %d lines for %d series", lines, len(res.Series))
	}
}

func TestPaperExperimentHonorsCanceledContext(t *testing.T) {
	x, err := Paper().Lookup("fig07")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := x.Run(ctx, NewEnv(1, 1)); err == nil {
		t.Fatal("canceled context did not stop the experiment")
	}
}
