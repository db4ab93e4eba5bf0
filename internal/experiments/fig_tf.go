package experiments

import (
	"fmt"
	"math"

	"zerberr/internal/corpus"
	"zerberr/internal/plot"
	"zerberr/internal/stats"
)

// pickFrequentAndModerate selects the analogues of the paper's
// "nicht" (very frequent) and "management" (less frequent) probe
// terms: the highest-df term, and a term roughly two orders of
// magnitude down the df ranking.
func pickFrequentAndModerate(c *corpus.Corpus) (frequent, moderate corpus.TermID) {
	byDF := c.TermsByDF()
	frequent = byDF[0]
	idx := len(byDF) / 20
	if idx < 1 {
		idx = len(byDF) - 1
	}
	moderate = byDF[idx]
	// Ensure the moderate term still has enough observations to plot.
	for idx > 1 && c.DF(byDF[idx]) < 30 {
		idx /= 2
	}
	moderate = byDF[idx]
	return frequent, moderate
}

// tailSlope fits a power law from the modal bin onward (the decaying
// branch the paper's log-log plots show).
func tailSlope(xs, ys []float64) (float64, error) {
	if len(ys) == 0 {
		return math.NaN(), stats.ErrDegenerateFit
	}
	mode := 0
	for i, y := range ys {
		if y > ys[mode] {
			mode = i
		}
	}
	fit, err := stats.FitPowerLaw(xs[mode:], ys[mode:])
	if err != nil {
		return math.NaN(), err
	}
	return fit.Slope, nil
}

// Fig04TFDistribution reproduces Figure 4: log-log raw term-frequency
// distributions of a frequent and a less frequent term.
func Fig04TFDistribution(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	c := sys.Corpus
	frequent, moderate := pickFrequentAndModerate(c)
	res := &Result{
		ChartOpts: plot.Options{LogX: true, LogY: true, XLabel: "term frequency", YLabel: "#documents"},
		Headers:   []string{"term", "df", "tail slope"},
	}
	for _, probe := range []struct {
		name string
		term corpus.TermID
	}{
		{"frequent", frequent},
		{"less frequent", moderate},
	} {
		counts := stats.FreqCount(c.TFValues(probe.term))
		xs, ys := stats.LogBin(counts, 1.5)
		res.Series = append(res.Series, stats.Series{
			Name: fmt.Sprintf("%s (%s)", probe.name, c.Term(probe.term)),
			X:    xs, Y: ys,
		})
		slope, err := tailSlope(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("fig04: fitting %s: %w", probe.name, err)
		}
		res.Rows = append(res.Rows, []interface{}{probe.name, c.DF(probe.term), slope})
		if slope >= 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("WARNING: %s term tail slope %.2f is not decaying", probe.name, slope))
		}
	}
	res.Notes = append(res.Notes,
		"paper: both terms decay roughly linearly on the log-log plot (power law), with term-specific slope and value range",
		"terms are distinguishable by slope and range — the leak motivating the RSTF")
	return res, nil
}

// Fig05NormTFDistribution reproduces Figure 5: log-log normalized-TF
// distributions of the same two terms — no longer power law but still
// term-specific.
func Fig05NormTFDistribution(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	c := sys.Corpus
	frequent, moderate := pickFrequentAndModerate(c)
	res := &Result{
		ChartOpts: plot.Options{LogX: true, LogY: true, XLabel: "normalized TF (×10⁶)", YLabel: "#documents"},
		Headers:   []string{"term", "df", "median normTF", "p90 normTF"},
	}
	for _, probe := range []struct {
		name string
		term corpus.TermID
	}{
		{"frequent", frequent},
		{"less frequent", moderate},
	} {
		vals := c.NormTFValues(probe.term)
		// Bucket the continuous scores onto an integer micro-scale so
		// the same log-binning machinery applies.
		scaled := make([]int, len(vals))
		for i, v := range vals {
			scaled[i] = int(v * 1e6)
		}
		counts := stats.FreqCount(scaled)
		xs, ys := stats.LogBin(counts, 1.5)
		res.Series = append(res.Series, stats.Series{
			Name: fmt.Sprintf("%s (%s)", probe.name, c.Term(probe.term)),
			X:    xs, Y: ys,
		})
		res.Rows = append(res.Rows, []interface{}{
			probe.name, c.DF(probe.term),
			stats.Median(vals), stats.Percentile(vals, 90),
		})
	}
	// The leak: the two distributions occupy different ranges.
	med0 := res.Rows[0][2].(float64)
	med1 := res.Rows[1][2].(float64)
	res.Notes = append(res.Notes,
		fmt.Sprintf("median normalized TF differs by %.1f× between the probe terms — term-specific, as the paper observes", math.Max(med0, med1)/math.Min(med0, med1)),
		"paper: normalized TF is no longer power law but remains term-specific, so storing it plainly still identifies terms")
	return res, nil
}
