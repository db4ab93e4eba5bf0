package stats

import (
	"math"
	"sort"
)

// Histogram accumulates counts of float64 observations into equal
// width bins over [Lo, Hi). Observations outside the range are clamped
// into the first or last bin so that totals are preserved.
type Histogram struct {
	Lo, Hi float64
	Bins   []int
}

// NewHistogram builds a histogram with n equal-width bins over
// [lo, hi). It panics if n <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs n > 0")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Bins)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}

// FreqCount maps a set of integer observations (e.g. raw term
// frequencies) to the number of times each value occurs. This is the
// "distribution" plotted on the paper's log-log Figures 4 and 5:
// x = value, y = number of documents exhibiting that value.
func FreqCount(values []int) map[int]int {
	out := make(map[int]int, len(values))
	for _, v := range values {
		out[v]++
	}
	return out
}

// LogBin groups positive (x, count) pairs into logarithmically spaced
// bins and returns, per bin, the geometric-center x and the summed
// count. base controls bin growth (e.g. 1.5 or 2). Used to smooth
// log-log plots before slope fitting.
func LogBin(points map[int]int, base float64) (xs, ys []float64) {
	if base <= 1 {
		panic("stats: LogBin needs base > 1")
	}
	keys := make([]int, 0, len(points))
	for k := range points {
		if k > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, nil
	}
	sort.Ints(keys)
	lo := 1.0
	hi := lo * base
	sum := 0
	i := 0
	flush := func() {
		if sum > 0 {
			xs = append(xs, math.Sqrt(lo*hi))
			ys = append(ys, float64(sum))
		}
		sum = 0
	}
	for i < len(keys) {
		k := float64(keys[i])
		if k < hi {
			sum += points[keys[i]]
			i++
			continue
		}
		flush()
		lo, hi = hi, hi*base
	}
	flush()
	return xs, ys
}

// Series is a named (x, y) sequence used by the plotting and CSV
// layers.
type Series struct {
	Name string
	X, Y []float64
}
