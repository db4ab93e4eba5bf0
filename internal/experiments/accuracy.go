package experiments

import (
	"context"
	"fmt"

	"zerberr/internal/rank"
	"zerberr/internal/stats"
)

// MultiTermAccuracy is extension experiment Ext-A: it quantifies the
// accuracy trade-off of Section 3.2 — Zerber+R answers multi-term
// queries as sequences of single-term queries without IDF, so its
// rankings drift from the TF×IDF baseline. Measured as top-10 overlap
// on the workload's multi-term queries.
func MultiTermAccuracy(e *Env) (*Result, error) {
	sys, err := e.System("studip")
	if err != nil {
		return nil, err
	}
	cl, err := e.Client("studip")
	if err != nil {
		return nil, err
	}
	log, err := e.Workload("studip")
	if err != nil {
		return nil, err
	}
	const k = 10
	var vsTFIDF, vsNormTF, normTFvsTFIDF []float64
	ran := 0
	for _, q := range log.Queries {
		if len(q.Terms) < 2 {
			continue
		}
		if ran >= 300 {
			break
		}
		ran++
		confidential, _, err := cl.Search(context.Background(), q.Terms, k)
		if err != nil {
			return nil, fmt.Errorf("accuracy: %w", err)
		}
		tfidf := sys.Baseline.Search(q.Terms, k, rank.TFIDFScorer{})
		normtf := sys.Baseline.Search(q.Terms, k, rank.NormTFScorer{})
		vsTFIDF = append(vsTFIDF, rank.Overlap(confidential, tfidf))
		vsNormTF = append(vsNormTF, rank.Overlap(confidential, normtf))
		normTFvsTFIDF = append(normTFvsTFIDF, rank.Overlap(normtf, tfidf))
	}
	if ran == 0 {
		return nil, fmt.Errorf("accuracy: no multi-term queries in workload")
	}
	res := &Result{
		Headers: []string{"comparison", "mean overlap@10", "median", "p10"},
		Rows: [][]interface{}{
			{"Zerber+R vs TF×IDF baseline", stats.Mean(vsTFIDF), stats.Median(vsTFIDF), stats.Percentile(vsTFIDF, 10)},
			{"Zerber+R vs IDF-free full scan", stats.Mean(vsNormTF), stats.Median(vsNormTF), stats.Percentile(vsNormTF, 10)},
			{"IDF-free full scan vs TF×IDF", stats.Mean(normTFvsTFIDF), stats.Median(normTFvsTFIDF), stats.Percentile(normTFvsTFIDF, 10)},
		},
		Series: []stats.Series{
			overlapHistogram("vs TF×IDF", vsTFIDF),
			overlapHistogram("vs IDF-free", vsNormTF),
		},
	}
	res.ChartOpts.XLabel = "overlap@10"
	res.ChartOpts.YLabel = "queries"
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured over %d multi-term queries", ran),
		"paper (Sections 3.2, 8): single-term accuracy is exact; multi-term accuracy 'slightly decreases' without IDF — the drop vs TF×IDF quantifies that trade-off",
		"the 'vs IDF-free' row isolates protocol truncation (per-term top-k instead of full lists) from the missing-IDF effect")
	return res, nil
}

// overlapHistogram buckets overlap values into 11 bins (0, 0.1, ... 1).
func overlapHistogram(name string, vals []float64) stats.Series {
	h := stats.NewHistogram(0, 1.0000001, 11)
	for _, v := range vals {
		h.Add(v)
	}
	xs := make([]float64, 11)
	ys := make([]float64, 11)
	for i := 0; i < 11; i++ {
		xs[i] = h.BinCenter(i)
		ys[i] = float64(h.Bins[i])
	}
	return stats.Series{Name: name, X: xs, Y: ys}
}
