package experiments

// Golden paper figures. testdata/paper_golden.txt holds the request and
// bandwidth figures at testEnv's NewEnv(0.1, 7): the Figure 11-13
// series and rows, the attacks experiment's request-count rows, the
// bandwidth analysis (every row and series but the wall-clock QPS) and
// the first-window sweep. Its lines up to the bandwidth analysis were
// written with -update by the last commit that could still schedule a
// search one list per round-trip, so they pin that those figures come
// out the same from the one batched schedule; the two derived-window
// request-count rows and the windows lines were appended when first
// windows came to be derived per list, and a pinned b must still
// reproduce every older line.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_golden.txt from this build's figures")

// goldenValue renders one figure value. Floats keep 12 significant
// digits: far below any figure's resolution, and above the last-bit
// differences a fused multiply-add would make on another architecture.
func goldenValue(v interface{}) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', 12, 64)
	}
	return fmt.Sprint(v)
}

// goldenLines renders a result's series (when series is set) and the
// rows keep accepts.
func goldenLines(res *Result, series bool, keep func(row []interface{}) bool) []string {
	var lines []string
	if series {
		for _, s := range res.Series {
			lines = append(lines, fmt.Sprintf("%s series %q", res.ID, s.Name))
			for i := range s.X {
				lines = append(lines, fmt.Sprintf("  %s %s", goldenValue(s.X[i]), goldenValue(s.Y[i])))
			}
		}
	}
	for _, row := range res.Rows {
		if !keep(row) {
			continue
		}
		vals := make([]string, len(row))
		for i, v := range row {
			vals[i] = goldenValue(v)
		}
		lines = append(lines, fmt.Sprintf("%s row %s", res.ID, strings.Join(vals, " | ")))
	}
	return lines
}

func TestPaperFiguresGolden(t *testing.T) {
	var got []string
	all := func([]interface{}) bool { return true }
	for _, id := range []string{"fig11", "fig12", "fig13"} {
		got = append(got, goldenLines(runAndRender(t, id), true, all)...)
	}
	// The attacks series mixes in the composition attacks; only the
	// request-count rows are request figures.
	got = append(got, goldenLines(runAndRender(t, "attacks"), false,
		func(row []interface{}) bool { return row[0] == "request-count" })...)
	got = append(got, goldenLines(runAndRender(t, "bandwidth"), true,
		func(row []interface{}) bool { return row[0] != "queries per second (one server)" })...)
	got = append(got, goldenLines(runAndRender(t, "windows"), true, all)...)

	path := filepath.Join("testdata", "paper_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := range max(len(got), len(want)) {
		g, w := "<missing>", "<missing>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}
