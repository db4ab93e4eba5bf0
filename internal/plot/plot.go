// Package plot renders experiment results as ASCII charts, aligned
// tables and CSV, so every figure of the paper can be regenerated in a
// terminal without external tooling.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"zerberr/internal/stats"
)

// Options controls chart rendering.
type Options struct {
	// LogX and LogY switch the respective axis to log10 scale
	// (non-positive points are dropped, as on the paper's log-log
	// figures).
	LogX, LogY bool
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
}

// width and height are the plot area in characters.
const width, height = 72, 20

// markers cycles per series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Chart renders the series into a text chart with axes, tick labels
// and a legend.
func Chart(title string, series []stats.Series, opt Options) string {
	type pt struct{ x, y float64 }
	var pts [][]pt
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		var ps []pt
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			if opt.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			ps = append(ps, pt{x, y})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
		pts = append(pts, ps)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if minX > maxX { // nothing plottable
		b.WriteString("  (no data)\n")
		return b.String()
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	if minY == maxY {
		minY, maxY = minY-1, maxY+1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, ps := range pts {
		m := markers[si%len(markers)]
		for _, p := range ps {
			cx := int(math.Round((p.x - minX) / (maxX - minX) * float64(width-1)))
			cy := int(math.Round((p.y - minY) / (maxY - minY) * float64(height-1)))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = m
			}
		}
	}
	axisVal := func(v float64, log bool) float64 {
		if log {
			return math.Pow(10, v)
		}
		return v
	}
	yTop := fmt.Sprintf("%.4g", axisVal(maxY, opt.LogY))
	yBot := fmt.Sprintf("%.4g", axisVal(minY, opt.LogY))
	labelW := len(yTop)
	if len(yBot) > labelW {
		labelW = len(yBot)
	}
	if opt.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opt.YLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		if i == 0 {
			label = fmt.Sprintf("%*s", labelW, yTop)
		}
		if i == height-1 {
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", width))
	xLo := fmt.Sprintf("%.4g", axisVal(minX, opt.LogX))
	xHi := fmt.Sprintf("%.4g", axisVal(maxX, opt.LogX))
	pad := width - len(xLo) - len(xHi)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s", strings.Repeat(" ", labelW), xLo, strings.Repeat(" ", pad), xHi)
	if opt.XLabel != "" {
		fmt.Fprintf(&b, "  (%s)", opt.XLabel)
	}
	b.WriteByte('\n')
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// Table renders rows with aligned columns. Cells are formatted with
// %v; numeric alignment is right, strings left.
func Table(headers []string, rows [][]interface{}) string {
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, headers)
	for _, row := range rows {
		r := make([]string, len(row))
		for i, c := range row {
			switch v := c.(type) {
			case float64:
				r[i] = fmt.Sprintf("%.4g", v)
			default:
				r[i] = fmt.Sprintf("%v", c)
			}
		}
		cells = append(cells, r)
	}
	widths := make([]int, len(headers))
	for _, row := range cells {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV renders the series as long-format CSV (series,x,y), sorted by
// series name then x, for machine consumption.
func CSV(series []stats.Series) string {
	sorted := append([]stats.Series(nil), series...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range sorted {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
