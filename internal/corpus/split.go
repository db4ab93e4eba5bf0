package corpus

import "zerberr/internal/stats"

// Split partitions a corpus into the three document sets Section 6.1.2
// prescribes for RSTF calibration: a training set (the representative
// sample the RSTF is learned from), a control set (held out for the
// σ cross-validation of Figure 9) and the rest of the collection.
type Split struct {
	Train, Control, Rest []DocID
}

// controlFrac is the share of the calibration sample held out as the
// control set (Section 6.1.2: about one third).
const controlFrac = 0.33

// NewSplit samples the corpus deterministically: sampleFrac of the
// documents form the calibration sample (the paper uses 30%), of which
// controlFrac are held out as the control set and the remainder
// becomes the training set. All other documents land in Rest.
func NewSplit(c *Corpus, sampleFrac float64, seed uint64) Split {
	sampleFrac = min(max(sampleFrac, 0), 1)
	g := stats.NewRNG(seed).Split("split")
	perm := g.Perm(c.NumDocs())
	nSample := int(sampleFrac * float64(c.NumDocs()))
	nControl := int(controlFrac * float64(nSample))
	var s Split
	for i, idx := range perm {
		id := DocID(idx)
		switch {
		case i < nControl:
			s.Control = append(s.Control, id)
		case i < nSample:
			s.Train = append(s.Train, id)
		default:
			s.Rest = append(s.Rest, id)
		}
	}
	return s
}

// TrainingScores extracts the per-term relevance-score samples
// (Eq. 4 normalized TF values) from the given documents. This is the
// input the RSTF construction of Section 5.1.1 trains on.
func TrainingScores(c *Corpus, docs []DocID) map[TermID][]float64 {
	out := make(map[TermID][]float64)
	for _, id := range docs {
		d := c.Doc(id)
		if d == nil || d.Length == 0 {
			continue
		}
		for t, tf := range d.TF {
			out[t] = append(out[t], float64(tf)/float64(d.Length))
		}
	}
	return out
}
