package adversary

import (
	"fmt"
	"math"
	"testing"

	"zerberr/internal/client"
)

// TestRConfidentiality holds TRS systems to the paper's claim at three
// values of r, under BFM and random merging, at a fixed seed, over the
// elements of non-training documents of every multi-term list:
//
//	(i)   Definition 1: the mean of posterior / global prior P(t) is
//	      below r;
//	(ii)  the within-list view (Definition 2's prior p_t/Σp): the mean
//	      amplification stays within 2 % of 1;
//	(iii) under BFM, request counts tell the adversary no more than
//	      0.03 of accuracy over the prior-only guesser.
//
// The maxima are logged, not asserted: a single fact's amplification
// exceeds r in every configuration (DESIGN "Measured
// r-confidentiality").
func TestRConfidentiality(t *testing.T) {
	const seed = 7
	c, background := Corpus(seed), BackgroundCorpus(seed)
	for _, r := range []float64{2, 8, 32} {
		for _, random := range []bool{false, true} {
			merge := "BFM"
			if random {
				merge = "random"
			}
			t.Run(fmt.Sprintf("r=%g/%s", r, merge), func(t *testing.T) {
				sys, err := System(c, seed, r, false, random, 0)
				if err != nil {
					t.Fatal(err)
				}
				v := NewView(sys, background)
				lists := v.EligibleLists(1, 1, 1000)
				_, rest, err := ElementAttack(v, lists)
				if err != nil {
					t.Fatal(err)
				}
				if rest.N == 0 {
					t.Fatalf("no non-training element in %d multi-term lists", len(lists))
				}
				reqAcc, reqPrior, probes, err := ProbeRequestCounts(sys, 400, client.WithInitialResponse(10))
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d lists, %d elements: Definition 1 mean %.3f max %.2f; within-list mean %.4f max %.2f; request count %.3f against prior %.3f over %d probes",
					len(lists), rest.N, rest.Def1, rest.Def1Max, rest.Amp, rest.AmpMax, reqAcc, reqPrior, probes)
				if rest.Def1 >= r {
					t.Errorf("(i) Definition 1: mean amplification %.3f, want < r = %g", rest.Def1, r)
				}
				if rest.Amp > 1.02 {
					t.Errorf("(ii) within-list mean amplification %.4f, want ≤ 1.02", rest.Amp)
				}
				if !random && math.Abs(reqAcc-reqPrior) > 0.03 {
					t.Errorf("(iii) BFM request-count accuracy %.3f, want within 0.03 of the prior's %.3f", reqAcc, reqPrior)
				}
			})
		}
	}
}
