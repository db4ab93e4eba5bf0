package experiments

import (
	"fmt"

	"zerberr/internal/plot"
	"zerberr/internal/stats"
	"zerberr/internal/workload"
)

// Fig10WorkloadConcentration reproduces Figure 10: query terms in
// decreasing frequency order (log X) against the cumulative top-10
// workload cost they account for (Equation 9).
func Fig10WorkloadConcentration(e *Env) (*Result, error) {
	sys, err := e.System("odp")
	if err != nil {
		return nil, err
	}
	log, err := e.Workload("odp")
	if err != nil {
		return nil, err
	}
	// N(L): expected elements per top-10 query against each merged
	// list (Equation 11), using the merge plan's df statistics.
	listDF := make(map[uint32]int)
	for _, t := range sys.Plan.AllTerms() {
		l, _ := sys.Plan.ListOf(t)
		listDF[uint32(l)] += sys.Corpus.DF(t)
	}
	terms := log.TermsByFreq()
	var xs, ys []float64
	cum := 0.0
	for i, t := range terms {
		l, ok := sys.Plan.ListOf(t)
		if !ok {
			continue
		}
		cost := workload.PositionEstimate(10, sys.Corpus.DF(t), listDF[uint32(l)])
		cum += cost * float64(log.Freq(t))
		xs = append(xs, float64(i+1))
		ys = append(ys, cum)
	}
	if len(ys) == 0 {
		return nil, fmt.Errorf("fig10: empty workload")
	}
	total := ys[len(ys)-1]
	for i := range ys {
		ys[i] = ys[i] / total * 100
	}
	// Where do 50% and 90% of the workload land?
	idx50, idx90 := -1, -1
	for i, y := range ys {
		if idx50 < 0 && y >= 50 {
			idx50 = i
		}
		if idx90 < 0 && y >= 90 {
			idx90 = i
		}
	}
	res := &Result{
		ChartOpts: plot.Options{LogX: true, XLabel: "query terms by decreasing frequency (log)", YLabel: "cumulative workload %"},
		Series:    []stats.Series{{Name: "cumulative workload (Eq. 9)", X: xs, Y: ys}},
		Headers:   []string{"distinct query terms", "terms covering 50%", "terms covering 90%"},
		Rows:      [][]interface{}{{len(xs), idx50 + 1, idx90 + 1}},
	}
	res.Notes = append(res.Notes,
		"paper: the most frequent queries constitute nearly the whole query workload",
		fmt.Sprintf("measured: %.1f%% of distinct terms already account for half the workload", float64(idx50+1)/float64(len(xs))*100))
	return res, nil
}

// Fig11BandwidthOverhead reproduces Figure 11: average bandwidth
// overhead (Equation 13) as a function of the initial response size b,
// for k = 1, 10, 50, on both test collections.
func Fig11BandwidthOverhead(e *Env) (*Result, error) {
	res := &Result{
		ChartOpts: plot.Options{LogX: true, LogY: true, XLabel: "initial response size b", YLabel: "AvBO (Eq. 13)"},
		Headers:   []string{"collection", "k", "best b", "AvBO at best b", "AvBO at b=k"},
	}
	for _, profile := range []string{"studip", "odp"} {
		rp, err := e.Replay(profile)
		if err != nil {
			return nil, err
		}
		for _, k := range replayKs {
			xs := make([]float64, 0, len(replayBs))
			ys := make([]float64, 0, len(replayBs))
			bestB, bestV := 0, 0.0
			var atK float64
			for _, b := range replayBs {
				v := rp.avgBandwidthOverhead(k, b)
				xs = append(xs, float64(b))
				ys = append(ys, v)
				if bestB == 0 || v < bestV {
					bestB, bestV = b, v
				}
				if b == k {
					atK = v
				}
			}
			res.Series = append(res.Series, stats.Series{
				Name: fmt.Sprintf("%s k=%d", profile, k),
				X:    xs, Y: ys,
			})
			res.Rows = append(res.Rows, []interface{}{profile, k, bestB, bestV, atK})
		}
	}
	res.Notes = append(res.Notes,
		"paper: minimal bandwidth overhead is achieved around b = k; larger initial responses only add overhead",
		"the b-grid is {1,2,5,10,20,50,100}; 'best b' should track k")
	return res, nil
}

// Fig12RequestCounts reproduces Figure 12: the average number of
// requests needed for top-k results as a function of b.
func Fig12RequestCounts(e *Env) (*Result, error) {
	res := &Result{
		ChartOpts: plot.Options{LogX: true, XLabel: "initial response size b", YLabel: "avg requests"},
		Headers:   []string{"collection", "k", "avg requests at b=10", "avg requests at b=100"},
	}
	for _, profile := range []string{"studip", "odp"} {
		rp, err := e.Replay(profile)
		if err != nil {
			return nil, err
		}
		for _, k := range replayKs {
			xs := make([]float64, 0, len(replayBs))
			ys := make([]float64, 0, len(replayBs))
			for _, b := range replayBs {
				xs = append(xs, float64(b))
				ys = append(ys, rp.avgRequests(k, b))
			}
			res.Series = append(res.Series, stats.Series{
				Name: fmt.Sprintf("%s k=%d", profile, k),
				X:    xs, Y: ys,
			})
			res.Rows = append(res.Rows, []interface{}{profile, k, rp.avgRequests(k, 10), rp.avgRequests(k, 100)})
		}
	}
	res.Notes = append(res.Notes,
		"paper: with an initial response of about 10 elements, most top-10 queries finish within 2 requests",
		"requests fall monotonically with b; the price is the Figure 11 bandwidth overhead")
	return res, nil
}

// Fig13QueryEfficiency reproduces Figure 13: the distribution of
// QRatio_eff = k/TRes over the workload for k=10 and b ∈ {10,20,50}.
func Fig13QueryEfficiency(e *Env) (*Result, error) {
	res := &Result{
		ChartOpts: plot.Options{XLabel: "query terms in workload (%), ordered by QRatio", YLabel: "QRatio_eff (Eq. 14)"},
		Headers:   []string{"collection", "b", "share at QRatio=1", "median QRatio", "mean QRatio"},
	}
	const k = 10
	for _, profile := range []string{"studip", "odp"} {
		rp, err := e.Replay(profile)
		if err != nil {
			return nil, err
		}
		for _, b := range []int{10, 20, 50} {
			xs, ys := rp.qratioCurve(k, b, 100)
			res.Series = append(res.Series, stats.Series{
				Name: fmt.Sprintf("%s b=%d", profile, b),
				X:    xs, Y: ys,
			})
			atOne := 0.0
			for i, y := range ys {
				if y >= 0.999 {
					atOne = xs[i]
				}
			}
			res.Rows = append(res.Rows, []interface{}{profile, b, atOne, median(ys), stats.Mean(ys)})
		}
	}
	res.Notes = append(res.Notes,
		"paper: with b=10 around 60% of the (workload-weighted) queries run at QRatio=1, i.e. as cheaply as an ordinary index",
		"paper: b=20 halves the efficiency of the formerly optimal queries (QRatio 0.5); b=50 worse still")
	return res, nil
}

func median(xs []float64) float64 { return stats.Median(xs) }
