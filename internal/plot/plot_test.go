package plot

import (
	"strings"
	"testing"

	"zerberr/internal/stats"
)

func lineSeries() []stats.Series {
	return []stats.Series{
		{Name: "up", X: []float64{1, 2, 3, 4}, Y: []float64{1, 2, 3, 4}},
		{Name: "down", X: []float64{1, 2, 3, 4}, Y: []float64{4, 3, 2, 1}},
	}
}

func TestChartContainsMarkersAndLegend(t *testing.T) {
	out := Chart("test chart", lineSeries(), Options{})
	if !strings.Contains(out, "test chart") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("missing series markers")
	}
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatal("missing legend entries")
	}
}

func TestChartLogAxesDropNonPositive(t *testing.T) {
	s := []stats.Series{{Name: "s", X: []float64{0, -1, 10, 100}, Y: []float64{5, 5, 1, 10}}}
	out := Chart("log", s, Options{LogX: true, LogY: true})
	if !strings.Contains(out, "100") {
		t.Fatalf("log chart should label max x=100:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	out := Chart("empty", nil, Options{})
	if !strings.Contains(out, "no data") {
		t.Fatal("empty chart should say so")
	}
	out2 := Chart("allneg", []stats.Series{{Name: "s", X: []float64{-1}, Y: []float64{1}}}, Options{LogX: true})
	if !strings.Contains(out2, "no data") {
		t.Fatal("all-filtered chart should say no data")
	}
}

func TestChartSinglePoint(t *testing.T) {
	s := []stats.Series{{Name: "pt", X: []float64{5}, Y: []float64{7}}}
	out := Chart("one", s, Options{})
	if !strings.Contains(out, "*") {
		t.Fatal("single point not plotted")
	}
}

func TestChartAxisLabels(t *testing.T) {
	out := Chart("t", lineSeries(), Options{XLabel: "elements", YLabel: "overhead"})
	if !strings.Contains(out, "(elements)") || !strings.Contains(out, "overhead") {
		t.Fatal("axis labels missing")
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]interface{}{
		{"alpha", 1.5},
		{"b", 123456.0},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header line wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
	if !strings.Contains(lines[3], "1.235e+05") {
		t.Fatalf("numeric formatting wrong: %q", lines[3])
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]stats.Series{
		{Name: "b", X: []float64{1}, Y: []float64{2}},
		{Name: "a,x", X: []float64{3}, Y: []float64{4}},
	})
	want := "series,x,y\n\"a,x\",3,4\nb,1,2\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
