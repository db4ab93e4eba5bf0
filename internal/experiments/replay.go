package experiments

import (
	"context"
	"fmt"
	"sort"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
)

// The replay grid: every (k, b) combination Figures 11-13 need.
var (
	replayKs = []int{1, 10, 50}
	replayBs = []int{1, 2, 5, 10, 20, 50, 100}
)

// termSample is one sampled distinct query term with its workload
// weight (how many query occurrences it represents).
type termSample struct {
	term   corpus.TermID
	weight float64
}

// replayPoint records the protocol cost of one (term, k, b) run.
type replayPoint struct {
	term      corpus.TermID
	weight    float64
	elements  int // TRes: total posting elements returned
	requests  int
	exhausted bool
}

// replay caches protocol costs for a profile across the whole grid.
type replay struct {
	points map[[2]int][]replayPoint // key: {k, b}
}

// sampleTerms bounds replay cost: all distinct query terms when few,
// otherwise the frequency head exactly plus a systematic stride sample
// of the tail with compensating weights.
func sampleTerms(terms []corpus.TermID, freq func(corpus.TermID) int, cap int) []termSample {
	if cap <= 0 {
		cap = 1200
	}
	if len(terms) <= cap {
		out := make([]termSample, len(terms))
		for i, t := range terms {
			out[i] = termSample{term: t, weight: float64(freq(t))}
		}
		return out
	}
	head := cap / 2
	out := make([]termSample, 0, cap)
	for _, t := range terms[:head] {
		out = append(out, termSample{term: t, weight: float64(freq(t))})
	}
	tail := terms[head:]
	stride := (len(tail) + head - 1) / head
	for i := 0; i < len(tail); i += stride {
		// The sampled term stands for its whole stride block; weight
		// by the block's total frequency for an unbiased estimate.
		blockWeight := 0
		for j := i; j < i+stride && j < len(tail); j++ {
			blockWeight += freq(tail[j])
		}
		out = append(out, termSample{term: tail[i], weight: float64(blockWeight)})
	}
	return out
}

// Replay executes (or returns the cached) protocol replay for the
// profile over the full grid.
func (e *Env) Replay(profile string) (*replay, error) {
	e.mu.Lock()
	if rp, ok := e.replays[profile]; ok {
		e.mu.Unlock()
		return rp, nil
	}
	e.mu.Unlock()

	log, err := e.Workload(profile)
	if err != nil {
		return nil, err
	}
	cl, err := e.Client(profile)
	if err != nil {
		return nil, err
	}
	samples := sampleTerms(log.TermsByFreq(), log.Freq, 1200)
	e.Logf("replaying %s: %d sampled terms × %d k × %d b", profile, len(samples), len(replayKs), len(replayBs))
	rp := &replay{points: make(map[[2]int][]replayPoint)}
	for _, k := range replayKs {
		for _, b := range replayBs {
			pts := make([]replayPoint, 0, len(samples))
			for _, s := range samples {
				_, st, err := cl.Search(context.Background(), []corpus.TermID{s.term}, k, client.WithInitialResponse(b))
				if err != nil {
					return nil, fmt.Errorf("experiments: replay term %d k=%d b=%d: %w", s.term, k, b, err)
				}
				pts = append(pts, replayPoint{
					term:      s.term,
					weight:    s.weight,
					elements:  st.Elements,
					requests:  st.Requests,
					exhausted: st.Exhausted,
				})
			}
			rp.points[[2]int{k, b}] = pts
		}
	}
	e.mu.Lock()
	e.replays[profile] = rp
	e.mu.Unlock()
	return rp, nil
}

// avgBandwidthOverhead computes Equation 13 over the weighted sample:
// mean of TRes(q)/k.
func (rp *replay) avgBandwidthOverhead(k, b int) float64 {
	pts := rp.points[[2]int{k, b}]
	num, den := 0.0, 0.0
	for _, p := range pts {
		num += p.weight * float64(p.elements) / float64(k)
		den += p.weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// avgRequests computes the weighted mean request count (Figure 12).
func (rp *replay) avgRequests(k, b int) float64 {
	pts := rp.points[[2]int{k, b}]
	num, den := 0.0, 0.0
	for _, p := range pts {
		num += p.weight * float64(p.requests)
		den += p.weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// avgElements is the weighted mean TRes (Section 6.6's "posting
// elements returned per query term").
func (rp *replay) avgElements(k, b int) float64 {
	return rp.avgBandwidthOverhead(k, b) * float64(k)
}

// qratioCurve returns the Figure 13 distribution: QRatio_eff = k/TRes
// per query occurrence, ordered descending (the paper orders query
// terms by efficiency), evaluated at `points` evenly spaced workload
// percentiles.
func (rp *replay) qratioCurve(k, b, points int) (xs, ys []float64) {
	pts := rp.points[[2]int{k, b}]
	type wq struct {
		q float64
		w float64
	}
	var all []wq
	totalW := 0.0
	for _, p := range pts {
		tres := p.elements
		if tres < 1 {
			tres = 1
		}
		q := float64(k) / float64(tres)
		if q > 1 {
			q = 1 // a response shorter than k cannot beat the baseline
		}
		all = append(all, wq{q: q, w: p.weight})
		totalW += p.weight
	}
	if totalW == 0 {
		return nil, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].q > all[j].q })
	xs = make([]float64, 0, points)
	ys = make([]float64, 0, points)
	cum := 0.0
	i := 0
	for p := 1; p <= points; p++ {
		target := float64(p) / float64(points) * totalW
		for i < len(all)-1 && cum+all[i].w < target {
			cum += all[i].w
			i++
		}
		xs = append(xs, float64(p)/float64(points)*100)
		ys = append(ys, all[i].q)
	}
	return xs, ys
}
